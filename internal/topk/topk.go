// Package topk implements SketchTree's top-k frequent pattern tracking
// (paper §5.2, Algorithm 4). The estimator variance is bounded by the
// self-join size of the sketched stream (Equation 2); deleting the
// most frequent values from the sketch — easy with AMS sketches —
// shrinks the self-join size dramatically on skewed streams.
//
// A Tracker maintains a min-heap H of estimated frequencies and a list
// L of the tracked values (a Go map plays the paper's C++ std::map).
// The delete condition is the central invariant: whenever value t is
// in L with stored frequency f_t, exactly f_t instances of t have been
// subtracted from the sketch. Query processing compensates by
// temporarily adding the deleted instances of any tracked query values
// back per cell (the d adjustment of §5.2).
//
// Algorithm 4 runs once per pattern occurrence, and read literally it
// evaluates the arrival's ξ signs on every cell four times: for the
// arrival, the add-back of its deleted instances, the re-estimate,
// and the delete of the new estimate. Here the arrival is one fused
// pass (ams.Sketch.UpdatePass) that records the value's ξ sign words
// and each row's sum of ξ·X, and Process works from that record. Because
// ξ² = 1, adding f instances back raises every row sum by exactly
// s1·f, so the re-estimate is a shift of the recorded sums; the
// add-back and the delete then reach the sketch as one write of their
// net change through the recorded signs. The result is exact, not
// approximate: the row sums are integers far below 2^53, so the float
// median of means sees the same values the per-cell estimator sums,
// and integer counter updates commute. Only an evicted value, which
// is a different one, is prepared and written on its own.
package topk

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"sketchtree/internal/ams"
	"sketchtree/internal/xi"
)

// entry is one tracked value: its estimated frequency (the heap key)
// and its heap position.
type entry struct {
	value uint64
	freq  int64
	pos   int
}

type entryHeap []*entry

func (h entryHeap) Len() int            { return len(h) }
func (h entryHeap) Less(i, j int) bool  { return h[i].freq < h[j].freq }
func (h entryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].pos = i; h[j].pos = j }
func (h *entryHeap) Push(x interface{}) { e := x.(*entry); e.pos = len(*h); *h = append(*h, e) }
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Tracker tracks up to k frequent values of one sketch (one virtual
// stream when combined with package vstream).
type Tracker struct {
	k       int
	sketch  *ams.Sketch
	entries map[uint64]*entry // the list L
	heap    entryHeap         // the min-heap H over L's frequencies

	// Churn diagnostics, mirrored in atomics so health snapshots can
	// read them race-free against the updating goroutine. promotions
	// counts admissions (including refreshes of already-tracked
	// values); evictions counts minimum-entry displacements by a more
	// frequent value. residency, minFreq and deletedMass mirror the
	// current list state: entry count, smallest tracked frequency (0
	// when empty), and the total instance mass currently deleted from
	// the sketch.
	promotions  atomic.Int64
	evictions   atomic.Int64
	residency   atomic.Int64
	minFreq     atomic.Int64
	deletedMass atomic.Int64

	// Hot-path scratch: Process runs once per sampled pattern
	// occurrence, so its eviction updates must not allocate. prep and
	// signs re-prepare evicted values, and free recycles list entries
	// displaced earlier.
	prep  *xi.Prep
	signs []uint64
	free  []*entry
}

// New creates a tracker of capacity k over the sketch.
func New(k int, sketch *ams.Sketch) (*Tracker, error) {
	if k < 1 {
		return nil, fmt.Errorf("topk: k=%d must be positive", k)
	}
	if sketch == nil {
		return nil, fmt.Errorf("topk: nil sketch")
	}
	return &Tracker{
		k:       k,
		sketch:  sketch,
		entries: make(map[uint64]*entry),
		prep:    &xi.Prep{},
		signs:   make([]uint64, sketch.Seeds().Batch().SignWords()),
	}, nil
}

// newEntry takes an entry from the free list, or allocates one. In
// steady state every admission reuses an entry recycled by an earlier
// removal or eviction.
//
//lint:hotpath
func (t *Tracker) newEntry(v uint64, freq int64) *entry {
	if n := len(t.free); n > 0 {
		e := t.free[n-1]
		t.free = t.free[:n-1]
		*e = entry{value: v, freq: freq}
		return e
	}
	return &entry{value: v, freq: freq} //lint:allow hotpath allocates only until the free list warms; eviction churn reuses entries
}

// K returns the tracker capacity.
func (t *Tracker) K() int { return t.k }

// Len returns the number of currently tracked values.
func (t *Tracker) Len() int { return len(t.entries) }

// Tracked returns the stored (deleted) frequency of v and whether v is
// tracked.
func (t *Tracker) Tracked(v uint64) (int64, bool) {
	e, ok := t.entries[v]
	if !ok {
		return 0, false
	}
	return e.freq, true
}

// Process runs Algorithm 4 for one arrival of value v. ps is the pass
// the arrival recorded: the caller has already applied it to the
// tracker's sketch with Sketch.UpdatePass (Algorithm 1 updates the
// sketches first, then invokes top-k processing).
//
// Steps: if v is tracked, its f deleted instances are added back and
// the entry removed (lines 1–7); the frequency of v is then
// re-estimated from the sketch (line 8); if the estimate is positive
// and beats the minimum tracked frequency — or the tracker has room —
// v is (re)admitted: a full tracker first evicts its minimum, adding
// that value's instances back (lines 10–13), then v's estimated
// instances are deleted from the sketch and v is recorded (lines
// 14–18). The delete condition holds on exit.
//
// The steps on v's own instances share the pass (see the package
// comment): the re-estimate is ps.Estimate(f), and the add-back and
// the delete are one AddPass of their net change. The counters, list
// and heap after Process are exactly those of the step-by-step
// algorithm.
//
//lint:hotpath
func (t *Tracker) Process(v uint64, ps *ams.Pass) {
	var back int64 // instances of v deleted earlier, now added back
	if e, ok := t.entries[v]; ok {
		back = e.freq
		heap.Remove(&t.heap, e.pos)
		delete(t.entries, v)
		t.deletedMass.Add(-back)
		t.free = append(t.free, e)
	}
	net := back
	est := int64(math.Round(ps.Estimate(back)))
	if est > 0 && (len(t.entries) < t.k || est > t.heap[0].freq) {
		if len(t.entries) >= t.k {
			// Evict the minimum: restore its instances to the sketch.
			min := heap.Pop(&t.heap).(*entry)
			delete(t.entries, min.value)
			seeds := t.sketch.Seeds()
			seeds.Prepare(min.value, t.prep)
			seeds.Batch().Signs(t.prep, t.signs)
			t.sketch.UpdateSigns(t.signs, min.freq)
			t.evictions.Add(1)
			t.deletedMass.Add(-min.freq)
			t.free = append(t.free, min)
		}
		e := t.newEntry(v, est)
		heap.Push(&t.heap, e)
		t.entries[v] = e //lint:allow hotpath entries are bounded by k; inserts beyond k follow an eviction
		net -= est       // delete the estimated instances
		t.promotions.Add(1)
		t.deletedMass.Add(est)
	}
	if net != 0 {
		t.sketch.AddPass(ps, net)
	}
	t.syncMirror()
}

// syncMirror realigns the residency and min-frequency atomics with the
// list after a Process step.
func (t *Tracker) syncMirror() {
	t.residency.Store(int64(len(t.entries)))
	if len(t.heap) == 0 {
		t.minFreq.Store(0)
		return
	}
	t.minFreq.Store(t.heap[0].freq)
}

// Churn is the tracker's admission/eviction accounting: lifetime
// promotion and eviction totals plus the current list state. All
// fields are read from atomics, so Churn is safe to call concurrently
// with Process.
type Churn struct {
	Promotions  int64 // admissions, including refreshes of tracked values
	Evictions   int64 // minimum entries displaced by a more frequent value
	Residency   int   // values currently tracked
	MinFreq     int64 // smallest tracked frequency (0 when empty)
	DeletedMass int64 // instance mass currently deleted from the sketch
}

// Churn reads the tracker's churn diagnostics race-free.
func (t *Tracker) Churn() Churn {
	return Churn{
		Promotions:  t.promotions.Load(),
		Evictions:   t.evictions.Load(),
		Residency:   int(t.residency.Load()),
		MinFreq:     t.minFreq.Load(),
		DeletedMass: t.deletedMass.Load(),
	}
}

// Adjustment returns the per-cell compensation d for a query over
// values vs: d[c] = Σ_{v ∈ vs ∩ L} ξ_v(c)·f_v, to be added to the
// counters during estimation (paper §5.2: "Z_j ← ξ·(X_ij + d)").
// Returns nil when no query value is tracked.
func (t *Tracker) Adjustment(vs []uint64) []int64 {
	var adj []int64
	seeds := t.sketch.Seeds()
	seen := make(map[uint64]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			continue
		}
		seen[v] = true
		e, ok := t.entries[v]
		if !ok {
			continue
		}
		if adj == nil {
			adj = make([]int64, seeds.Cells())
		}
		p := seeds.Prepare(v, nil)
		for c := range adj {
			adj[c] += int64(seeds.Xi(c, p)) * e.freq
		}
	}
	return adj
}

// AdjustmentOne is Adjustment for a single query value, for the
// estimators that need the per-cell vector (an error bar's F2 is not a
// shift of the row sums; a plain count uses Tracked and
// ams.Estimator.Count instead). An untracked value returns nil without
// allocating.
func (t *Tracker) AdjustmentOne(v uint64) []int64 {
	e, ok := t.entries[v]
	if !ok {
		return nil
	}
	seeds := t.sketch.Seeds()
	adj := make([]int64, seeds.Cells())
	p := seeds.Prepare(v, nil)
	for c := range adj {
		adj[c] = int64(seeds.Xi(c, p)) * e.freq
	}
	return adj
}

// AdjustmentAll compensates for every tracked value; used for
// whole-stream diagnostics such as self-join size including the
// deleted heavy hitters.
func (t *Tracker) AdjustmentAll() []int64 {
	if len(t.entries) == 0 {
		return nil
	}
	vs := make([]uint64, 0, len(t.entries))
	for v := range t.entries {
		vs = append(vs, v)
	}
	return t.Adjustment(vs)
}

// RestoreAll adds every tracked value's deleted instances back into
// the sketch and clears the tracker. After RestoreAll the sketch is
// exactly what it would have been without top-k processing (tested as
// an invariant).
func (t *Tracker) RestoreAll() {
	//lint:allow determinism sketch updates commute (Update adds counts), so restore order cannot change the resulting sketch state
	for v, e := range t.entries {
		t.sketch.Update(v, e.freq)
		delete(t.entries, v)
		t.free = append(t.free, e)
	}
	t.heap = t.heap[:0]
	t.residency.Store(0)
	t.minFreq.Store(0)
	t.deletedMass.Store(0)
}

// ValueFreq is a tracked value with its stored (deleted) frequency.
type ValueFreq struct {
	Value uint64
	Freq  int64
}

// Entries returns the tracked values and their stored frequencies in
// descending frequency order (the current top-k list).
func (t *Tracker) Entries() []ValueFreq {
	out := make([]ValueFreq, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, ValueFreq{Value: e.value, Freq: e.freq})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Freq != out[j].Freq {
			return out[i].Freq > out[j].Freq
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// Restore reconstructs a tracker from persisted entries. The sketch
// must already hold its persisted (post-deletion) counters; Restore
// only rebuilds the heap and list, re-establishing the delete
// condition recorded at snapshot time.
func Restore(k int, sketch *ams.Sketch, entries []ValueFreq) (*Tracker, error) {
	t, err := New(k, sketch)
	if err != nil {
		return nil, err
	}
	if len(entries) > k {
		return nil, fmt.Errorf("topk: %d entries exceed capacity %d", len(entries), k)
	}
	for _, vf := range entries {
		if vf.Freq <= 0 {
			return nil, fmt.Errorf("topk: entry %d has non-positive frequency %d", vf.Value, vf.Freq)
		}
		if _, dup := t.entries[vf.Value]; dup {
			return nil, fmt.Errorf("topk: duplicate entry %d", vf.Value)
		}
		e := &entry{value: vf.Value, freq: vf.Freq}
		heap.Push(&t.heap, e)
		t.entries[vf.Value] = e
		t.deletedMass.Add(vf.Freq)
	}
	t.syncMirror()
	return t, nil
}

// Clone copies the tracker onto sketch, which must hold a copy of the
// tracker's own counters (ams.Sketch.Clone). The heap is copied in its
// current layout, entries and all, into one slab — not rebuilt from
// Entries as Restore does — so a tie at the minimum evicts the same
// value in the clone as in the source, and both evolve identically
// under the same further stream. The churn diagnostics are copied too.
func (t *Tracker) Clone(sketch *ams.Sketch) *Tracker {
	c := &Tracker{
		k:       t.k,
		sketch:  sketch,
		entries: make(map[uint64]*entry, len(t.heap)),
		heap:    make(entryHeap, len(t.heap)),
		prep:    &xi.Prep{},
		signs:   make([]uint64, len(t.signs)),
	}
	slab := make([]entry, len(t.heap))
	for i, e := range t.heap {
		slab[i] = *e
		c.heap[i] = &slab[i]
		c.entries[e.value] = &slab[i]
	}
	c.promotions.Store(t.promotions.Load())
	c.evictions.Store(t.evictions.Load())
	c.residency.Store(t.residency.Load())
	c.minFreq.Store(t.minFreq.Load())
	c.deletedMass.Store(t.deletedMass.Load())
	return c
}

// MemoryBytes accounts the heap and list storage: 24 bytes of payload
// per tracked entry in the heap plus the map entry, mirroring the
// paper's "top-k data structures" term in the synopsis size.
func (t *Tracker) MemoryBytes() int {
	return len(t.entries) * (24 + 16)
}
