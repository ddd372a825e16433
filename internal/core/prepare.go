package core

import (
	"errors"
	"fmt"
	"time"

	"sketchtree/internal/enum"
	"sketchtree/internal/obs"
	"sketchtree/internal/rabin"
	"sketchtree/internal/tree"
	"sketchtree/internal/xi"
)

// The update kernel is split in two. PrepareTree does everything that
// depends only on the pattern → value mapping and the ξ seeds —
// enumeration, Prüfer encoding, the Rabin fingerprint, the GF(2^m) ξ
// preparation and the sign bit of every sketch cell — and writes the
// results into a caller-owned Prepared. ApplyPrepared then does what
// touches the synopsis: route each value to its virtual stream, add
// ±1 to that stream's counters from the sign bits, run the sampled
// top-k step on the same bits, and count trees and patterns.
//
// The mapping state PrepareTree reads (the fingerprinter, the ξ family
// and the seed batch) is immutable after construction, so any number
// of goroutines may prepare trees against one engine while another
// applies under the engine owner's lock. The applied result is
// bit-identical to a single pass: ApplyPrepared takes the occurrences
// in enumeration order, so the counters, the top-k RNG draws and the
// heap evolve exactly as when each pattern was applied as enumerated.

// errForeignMapping refuses a Prepared whose values and signs were
// computed under another engine's mapping: its sign bits would be
// meaningless for this engine's counters.
var errForeignMapping = errors.New("core: tree prepared under a different mapping (fingerprint modulus or ξ seeds)")

// Prepared is one tree made ready for ApplyPrepared: every pattern
// occurrence's value and ξ sign words, in enumeration order. It is
// caller-owned scratch — reuse it across trees so its buffers, its
// enumerator and its encoder stop allocating — and must not be shared
// between goroutines. The zero value is ready to use.
type Prepared struct {
	// The mapping the batch was computed under; ApplyPrepared accepts
	// only its own engine's (clones and window slices share it).
	fp    *rabin.Fingerprinter
	batch *xi.Batch
	fam   *xi.Family

	t     *tree.Tree
	vals  []uint64        // per occurrence: its pattern value
	signs []uint64        // per occurrence: nw sign words (xi.Batch.Signs)
	nw    int             // sign words per value
	pats  []*enum.Pattern // per occurrence; valid until the next PrepareTree

	en    *enum.Enumerator
	visit func(*enum.Pattern) error // visitPattern, bound once
	penc  patternEncoder
	buf   []byte
	prep  xi.Prep

	// Stage timings of the prepare step, flushed by ApplyPrepared.
	timed              bool
	mark               time.Time
	enumNs, fpNs, skNs int64
}

// PrepareTree enumerates t's patterns and computes each occurrence's
// value and ξ sign words into p. It reads only e's immutable mapping
// state, never the synopsis, so it needs no lock and may run
// concurrently with updates and queries on e.
//
//lint:hotpath
func (e *Engine) PrepareTree(t *tree.Tree, p *Prepared) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("core: nil tree")
	}
	if p.en == nil || p.en.MaxEdges() != e.cfg.MaxPatternEdges {
		en, err := enum.NewEnumerator(e.cfg.MaxPatternEdges) //lint:allow hotpath once per scratch (or per change of k), then reused
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		p.en = en
		p.visit = p.visitPattern
	}
	b := e.seeds.Batch()
	p.fp, p.batch, p.fam, p.nw = e.fp, b, e.fam, b.SignWords()
	p.t = nil
	p.vals, p.signs, p.pats = p.vals[:0], p.signs[:0], p.pats[:0]
	p.timed = e.met.TimersOn()
	p.enumNs, p.fpNs, p.skNs = 0, 0, 0
	if p.timed {
		p.mark = time.Now()
	}
	// The enumerator's memo is keyed by node identity and must be reset
	// per tree; Reset also invalidates the previous tree's patterns.
	p.en.Reset()
	if err := p.en.ForEach(t.Root, p.visit); err != nil {
		return err
	}
	p.t = t
	return nil
}

// visitPattern maps one enumerated occurrence to its value and sign
// words. With timers off the stage accounting is one boolean test.
//
//lint:hotpath
func (p *Prepared) visitPattern(pat *enum.Pattern) error {
	if p.timed {
		now := time.Now()
		p.enumNs += now.Sub(p.mark).Nanoseconds()
		p.mark = now
	}
	// The encoder emits the bytes of PatternValue(pat.ToTree()) without
	// materializing a tree (pinned by an identity test).
	p.buf = p.penc.encode(pat, p.buf[:0])
	v := p.fp.Fingerprint(p.buf)
	if p.timed {
		now := time.Now()
		p.fpNs += now.Sub(p.mark).Nanoseconds()
		p.mark = now
	}
	p.fam.Prepare(v, &p.prep)
	n := len(p.signs)
	for len(p.signs) < n+p.nw {
		p.signs = append(p.signs, 0)
	}
	p.batch.Signs(&p.prep, p.signs[n:])
	p.vals = append(p.vals, v)
	p.pats = append(p.pats, pat)
	if p.timed {
		now := time.Now()
		p.skNs += now.Sub(p.mark).Nanoseconds()
		p.mark = now
	}
	return nil
}

// ApplyPrepared folds a tree prepared by PrepareTree into the
// synopsis: the counter adds of Algorithm 1 and the sampled top-k step
// of Algorithm 4, occurrence by occurrence in enumeration order. This
// is the only part of an update that touches synopsis state, so it is
// all an owner's write lock needs to cover. A batch prepared under a
// different mapping — another seed, modulus or seed set, even an equal
// one built separately — is refused with nothing applied. Applying the
// same batch twice adds the tree twice.
//
//lint:hotpath
func (e *Engine) ApplyPrepared(p *Prepared) error { return e.apply(p, 1) }

// apply is the shared add/remove kernel of ApplyPrepared, AddTree and
// RemoveTree.
//
//lint:hotpath
func (e *Engine) apply(p *Prepared, delta int64) error {
	if p.t == nil {
		return fmt.Errorf("core: nothing prepared")
	}
	if p.fp != e.fp || p.batch != e.seeds.Batch() {
		return errForeignMapping
	}
	timed := p.timed
	var start, mark time.Time
	var tkNs, tkOps int64
	if timed {
		start = time.Now()
	}
	nw := p.nw
	for i, v := range p.vals {
		signs := p.signs[i*nw : i*nw+nw]
		// An occurrence sampled for top-k takes the fused arrival pass,
		// so Algorithm 4 reuses its signs and row sums; the rest take
		// the plain update.
		if delta > 0 && e.trackers != nil && e.sampleTopK() {
			e.streams.UpdatePass(v, signs, delta, e.pass)
			if timed {
				mark = time.Now()
			}
			e.trackers[e.streams.Route(v)].Process(v, e.pass)
			if timed {
				tkNs += time.Since(mark).Nanoseconds()
				tkOps++
			}
		} else {
			e.streams.UpdateSigns(v, signs, delta)
		}
		if e.truth != nil {
			e.truth.Add(v, delta) //lint:allow hotpath exact-truth tracking is a test-only opt-in, nil in production
		}
		if e.observer != nil {
			e.observer(v, p.pats[i])
		}
		if e.auditor != nil {
			e.auditor.Observe(v, delta) //lint:allow hotpath the auditor is an opt-in diagnostic, nil in production
		}
	}
	occ := int64(len(p.vals))
	if timed {
		e.met.StageAdd(obs.StageEnum, occ, p.enumNs)
		e.met.StageAdd(obs.StageFingerprint, occ, p.fpNs)
		e.met.StageAdd(obs.StageSketch, occ, p.skNs+time.Since(start).Nanoseconds()-tkNs)
		e.met.StageAdd(obs.StageTopK, tkOps, tkNs)
	}
	e.patterns += occ * delta
	e.met.AddPatterns(occ * delta)
	if e.sum != nil && delta > 0 {
		// The summary is a set of observed paths; deletion does not
		// retract structure (a conservative over-approximation).
		e.sum.AddTree(p.t) //lint:allow hotpath path-summary ingestion is opt-in and amortized over its arena
	}
	e.trees += delta
	e.met.AddTrees(delta)
	if delta < 0 {
		e.met.AddRemoves(1)
	}
	return nil
}
