// Package vstream implements SketchTree's virtual streams (paper
// §5.3): the one-dimensional stream is split into p disjoint virtual
// streams by the residue of each value modulo a prime p, and one AMS
// sketch is maintained per virtual stream. Each virtual stream has a
// smaller self-join size than the whole, improving accuracy for a
// given sketch size.
//
// All p sketches share one Seeds instance, so the cell-wise sum of any
// subset of them is the sketch of the union of those virtual streams;
// queries over sets of patterns that straddle virtual streams sum the
// relevant sketches first and run the usual estimators on the sum.
package vstream

import (
	"fmt"
	"sync/atomic"

	"sketchtree/internal/ams"
	"sketchtree/internal/xi"
)

// Streams is a p-way partition of a value stream, one shared-seed AMS
// sketch per part.
type Streams struct {
	seeds    *ams.Seeds
	p        uint64
	sketches []*ams.Sketch

	// items[i] is the net number of occurrences routed to virtual
	// stream i (insertions minus deletions), a health diagnostic for
	// partition skew. The counters are atomics so concurrent snapshot
	// readers stay race-free against the single updating goroutine;
	// they are process-local (not persisted) like stage timers.
	items []atomic.Int64
}

// New creates p virtual streams over the shared seeds. p must be
// positive; the paper recommends a prime (see NextPrime).
func New(seeds *ams.Seeds, p int) (*Streams, error) {
	if p < 1 {
		return nil, fmt.Errorf("vstream: p=%d must be positive", p)
	}
	s := &Streams{
		seeds:    seeds,
		p:        uint64(p),
		sketches: make([]*ams.Sketch, p),
		items:    make([]atomic.Int64, p),
	}
	for i := range s.sketches {
		s.sketches[i] = seeds.NewSketch()
	}
	return s, nil
}

// FromCounters reconstructs a Streams from persisted per-stream
// counter arrays (one array per virtual stream).
func FromCounters(seeds *ams.Seeds, counters [][]int64) (*Streams, error) {
	s, err := New(seeds, len(counters))
	if err != nil {
		return nil, err
	}
	for i, x := range counters {
		sk, err := seeds.SketchFromCounters(x)
		if err != nil {
			return nil, fmt.Errorf("vstream: stream %d: %w", i, err)
		}
		s.sketches[i] = sk
	}
	return s, nil
}

// Clone deep-copies the partition: counters and item diagnostics are
// copied, the (immutable) seeds are shared. The receiver must be
// quiescent or read-locked against updates while cloning.
func (s *Streams) Clone() *Streams {
	c := &Streams{
		seeds:    s.seeds,
		p:        s.p,
		sketches: make([]*ams.Sketch, len(s.sketches)),
		items:    make([]atomic.Int64, len(s.items)),
	}
	for i, sk := range s.sketches {
		c.sketches[i] = sk.Clone()
	}
	for i := range s.items {
		c.items[i].Store(s.items[i].Load())
	}
	return c
}

// P returns the number of virtual streams.
func (s *Streams) P() int { return int(s.p) }

// Seeds returns the shared seed set.
func (s *Streams) Seeds() *ams.Seeds { return s.seeds }

// Route returns the index of the virtual stream that value v belongs
// to.
//
//lint:hotpath
func (s *Streams) Route(v uint64) int { return int(v % s.p) }

// Sketch returns the sketch of virtual stream i.
func (s *Streams) Sketch(i int) *ams.Sketch { return s.sketches[i] }

// SketchFor returns the sketch of the virtual stream v routes to.
//
//lint:hotpath
func (s *Streams) SketchFor(v uint64) *ams.Sketch { return s.sketches[s.Route(v)] }

// Update adds delta occurrences of v to its virtual stream.
func (s *Streams) Update(v uint64, delta int64) {
	s.UpdatePrepared(v, s.seeds.Prepare(v, nil), delta)
}

// UpdatePrepared is Update with a caller-managed ξ preparation.
func (s *Streams) UpdatePrepared(v uint64, p *xi.Prep, delta int64) {
	r := s.Route(v)
	s.sketches[r].UpdatePrepared(p, delta)
	s.items[r].Add(delta)
}

// UpdateSigns adds delta occurrences of v to its virtual stream,
// reading v's ξ signs from the words Batch.Signs wrote for it (the
// stream hot path prepares them ahead, outside any lock).
//
//lint:hotpath
func (s *Streams) UpdateSigns(v uint64, signs []uint64, delta int64) {
	r := s.Route(v)
	s.sketches[r].UpdateSigns(signs, delta)
	s.items[r].Add(delta)
}

// UpdatePass is UpdateSigns through the fused arrival pass: it also
// records v's signs and row sums in ps for the top-k tracker of v's
// virtual stream.
//
//lint:hotpath
func (s *Streams) UpdatePass(v uint64, signs []uint64, delta int64, ps *ams.Pass) {
	r := s.Route(v)
	s.sketches[r].UpdatePass(signs, delta, ps)
	s.items[r].Add(delta)
}

// Items returns the net occurrences routed to virtual stream i so far
// in this process (insertions minus deletions). Safe to call
// concurrently with updates. Restored Streams start at zero: item
// counts are runtime diagnostics, not synopsis state.
func (s *Streams) Items(i int) int64 { return s.items[i].Load() }

// Add folds another partition into this one: the counters of every
// virtual stream, cell-wise, and the item diagnostics — the synopsis
// half of an engine merge. The caller must have checked that the two
// partitions' Seeds are Equal: each partition's sketches all share its
// one Seeds, so that single check covers all p streams and the adds
// skip the per-sketch comparison. The operand must be quiescent.
//
//lint:hotpath
func (s *Streams) Add(o *Streams) error {
	if o.p != s.p {
		return fmt.Errorf("vstream: cannot add %d streams into %d", o.p, s.p)
	}
	for i, sk := range s.sketches {
		sk.AddCounters(o.sketches[i])
	}
	for i := range s.items {
		s.items[i].Add(o.items[i].Load())
	}
	return nil
}

// Combined returns a new sketch that is the cell-wise sum of the
// virtual streams the given values route to (each stream included
// once). With shared seeds this is exactly the sketch of the union
// stream, as required for set and expression queries (paper §5.3).
func (s *Streams) Combined(vs []uint64) *ams.Sketch {
	seen := make(map[int]bool, len(vs))
	out := s.seeds.NewSketch()
	for _, v := range vs {
		r := s.Route(v)
		if seen[r] {
			continue
		}
		seen[r] = true
		// AddSketch cannot fail: all sketches share out's seeds.
		if err := out.AddSketch(s.sketches[r]); err != nil {
			panic("vstream: " + err.Error())
		}
	}
	return out
}

// MemoryBytes returns the counter storage across all virtual streams
// (seed memory is accounted once, by the Seeds).
func (s *Streams) MemoryBytes() int {
	n := 0
	for _, sk := range s.sketches {
		n += sk.MemoryBytes()
	}
	return n
}

// IsPrime reports whether n is prime (trial division; n is small — the
// paper uses p = 229).
func IsPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// NextPrime returns the smallest prime >= n.
func NextPrime(n int) int {
	if n < 2 {
		return 2
	}
	for !IsPrime(n) {
		n++
	}
	return n
}
