// Package window implements sliding-window counting over the streaming
// synopsis: a ring of chunked sub-synopses (one core.Engine per time
// slice), advanced on document count or wall clock, expired by dropping
// the oldest slice, and merged on demand into one engine over the live
// slices (Build).
//
// The construction rides on the same linearity that makes cluster merge
// exact: AMS sketches are linear projections, so the cell-wise integer
// sum of the live slices' counters IS the sketch of the live documents.
// The merged engine is therefore bit-identical — synopsis bytes and
// float64 estimates — to a fresh engine fed only the documents still
// inside the window, and everything downstream (the plan cache, the
// query path, snapshot-isolated serving, cluster pulls) applies to it
// unchanged.
//
// Concurrency: the ring takes no lock of its own. Its owner serializes
// every mutator (Add, Remove, Absorb, Advance, AdvanceDue, Build,
// EnableTimers) — the root package's Safe does so with its write lock,
// which also publishes the built engine. Readers need nothing: the ring
// is replaced copy-on-write behind an atomic pointer and per-slice tree
// counts are atomics, so Status, Trees and Patterns are lock-free and
// never wait behind an in-flight ingest.
//
// The clock is injected (New's clock parameter); the merge/rebuild
// paths never read time.Now themselves, keeping the determinism
// contract auditable: two windows fed the same documents and the same
// advance calls hold identical synopses regardless of wall time.
package window

import (
	"fmt"
	"sync/atomic"
	"time"

	"sketchtree/internal/core"
	"sketchtree/internal/obs"
	"sketchtree/internal/tree"
)

// Policy configures the sliding window.
type Policy struct {
	// Slices is the ring capacity: the window covers at most this many
	// slices; advancing while full expires (drops) the oldest. Must be
	// at least 1 (a 1-slice ring is a tumbling window).
	Slices int

	// SliceTrees seals the current slice after this many trees have
	// been added to it. 0 disables the count cadence.
	SliceTrees int

	// SliceDur seals the current slice after this wall-clock duration.
	// 0 disables the clock cadence. With both cadences zero the window
	// advances only on explicit Advance calls.
	SliceDur time.Duration

	// RefreshEveryTrees is the publish cadence of the window's owner:
	// the merged engine is rebuilt and published after this many
	// updates between advances (every advance publishes regardless, so
	// expired documents leave the served state immediately). 0 selects
	// DefaultRefreshEveryTrees; negative disables update-driven
	// publishes (advance and explicit refresh only). Served answers
	// trail the live window by at most this many updates.
	RefreshEveryTrees int
}

// DefaultRefreshEveryTrees is the merged-rebuild cadence selected by a
// zero Policy.RefreshEveryTrees.
const DefaultRefreshEveryTrees = 256

// slice is one chunk of the ring: a sub-synopsis plus its provenance.
// start is immutable after creation; trees is atomic so lock-free
// Status readers can report per-slice occupancy during ingest.
type slice struct {
	eng   *core.Engine
	start time.Time
	trees atomic.Int64
}

// Windowed is the sliding-window ring. Construct with New; the zero
// value is not valid.
type Windowed struct {
	pol      Policy
	clock    func() time.Time
	template *core.Engine // empty donor: shared seeds, modulus, plan cache
	met      *obs.Metrics // persistent serving metrics across rebuilds

	ring atomic.Pointer[[]*slice] // live slices, oldest first; last = current

	advances atomic.Int64
	expires  atomic.Int64
}

// New builds a sliding window over template's configuration. The
// template engine must be empty (zero trees): it donates the ξ seeds,
// the fingerprint modulus and the query-plan cache to every slice and
// merged engine (via Clone), and is never updated afterwards.
//
// Configurations that break the slice merge are rejected here, at
// enable time, with the same reasoning cluster mode applies: top-k
// trackers interleave deletions into the counters with no well-defined
// union, the exact baseline cannot forget an expired slice's counts
// bit-exactly, and an exact-shadow auditor's sample is drawn over one
// engine's stream. TopK must be 0, TrackExact false, and no auditor
// attached.
//
// clock supplies wall time for the SliceDur cadence and provenance
// ages; nil selects time.Now. The merge and rebuild paths only ever
// read the injected clock, never the real one.
func New(template *core.Engine, pol Policy, clock func() time.Time) (*Windowed, error) {
	if template == nil {
		return nil, fmt.Errorf("window: nil template engine")
	}
	cfg := template.Config()
	if cfg.TopK != 0 {
		return nil, fmt.Errorf("window: Config.TopK %d != 0: top-k synopses cannot be merged, so slices cannot form a window", cfg.TopK)
	}
	if cfg.TrackExact {
		return nil, fmt.Errorf("window: Config.TrackExact is set: the exact baseline cannot drop an expired slice's counts")
	}
	if template.AuditEnabled() {
		return nil, fmt.Errorf("window: an exact-shadow auditor is attached: its sample has no well-defined union across slices")
	}
	if n := template.TreesProcessed(); n != 0 {
		return nil, fmt.Errorf("window: engine already holds %d trees; enable the window before any tree is added", n)
	}
	if pol.Slices < 1 {
		return nil, fmt.Errorf("window: Policy.Slices %d < 1", pol.Slices)
	}
	if pol.SliceTrees < 0 {
		return nil, fmt.Errorf("window: Policy.SliceTrees %d < 0", pol.SliceTrees)
	}
	if pol.SliceDur < 0 {
		return nil, fmt.Errorf("window: Policy.SliceDur %v < 0", pol.SliceDur)
	}
	if clock == nil {
		clock = time.Now
	}
	w := &Windowed{
		pol:      pol,
		clock:    clock,
		template: template,
		met:      &obs.Metrics{},
	}
	w.met.EnableTimers(template.Metrics().TimersOn())
	first, err := w.newSlice(clock())
	if err != nil {
		return nil, err
	}
	ring := []*slice{first}
	w.ring.Store(&ring)
	return w, nil
}

// Metrics returns the persistent serving metrics: the sink the merged
// engine reports queries through, and where producers should attribute
// parse time in window mode.
func (w *Windowed) Metrics() *obs.Metrics { return w.met }

// EnableTimers switches stage/latency timing on every slice, the
// serving metrics, and slices created later.
func (w *Windowed) EnableTimers(on bool) {
	w.met.EnableTimers(on)
	for _, sl := range *w.ring.Load() {
		sl.eng.Metrics().EnableTimers(on)
	}
}

// current returns the current (newest) slice.
//
//lint:hotpath
func (w *Windowed) current() *slice {
	r := *w.ring.Load()
	return r[len(r)-1]
}

// newSlice clones the empty template into a fresh slice engine with its
// own metrics sink, timed like the serving metrics.
func (w *Windowed) newSlice(start time.Time) (*slice, error) {
	eng, err := w.template.Clone()
	if err != nil {
		return nil, fmt.Errorf("window: new slice: %w", err)
	}
	m := &obs.Metrics{}
	m.EnableTimers(w.met.TimersOn())
	eng.SetMetrics(m)
	return &slice{eng: eng, start: start}, nil
}

// Add folds one tree, prepared against the template (or any engine
// sharing its mapping), into the current slice, advancing first if
// the clock cadence is due and afterwards if the count cadence fills
// the slice. advanced reports whether the ring moved, so the owner
// knows to publish a fresh Build. Preparing is the owner's part, done
// before it serializes the call.
//
//lint:hotpath
func (w *Windowed) Add(p *core.Prepared) (advanced bool, err error) {
	if advanced, err = w.AdvanceDue(); err != nil {
		return advanced, err
	}
	cur := w.current()
	if err := cur.eng.ApplyPrepared(p); err != nil {
		return advanced, err
	}
	cur.trees.Add(1)
	if w.pol.SliceTrees > 0 && cur.trees.Load() >= int64(w.pol.SliceTrees) {
		return true, w.advanceAt(w.clock()) //lint:allow hotpath slice rotation is the cadence boundary, amortized over SliceTrees updates
	}
	return advanced, nil
}

// Remove deletes one earlier occurrence of the tree from the current
// slice (the AMS deletion property), after any due clock advance.
// Removals target the current slice only: a document that has rotated
// into an older slice leaves the window by expiry, not by deletion.
func (w *Windowed) Remove(t *tree.Tree) (advanced bool, err error) {
	if advanced, err = w.AdvanceDue(); err != nil {
		return advanced, err
	}
	cur := w.current()
	if err := cur.eng.RemoveTree(t); err != nil {
		return advanced, err
	}
	cur.trees.Add(-1)
	return advanced, nil
}

// Absorb merges a foreign engine's synopsis into the current slice,
// after any due clock advance — the fan-in half of parallel ingestion,
// windowed. The operand must satisfy the usual merge preconditions
// (identical Config including Seed, no top-k, no auditor) and is only
// read.
func (w *Windowed) Absorb(o *core.Engine) (advanced bool, err error) {
	if advanced, err = w.AdvanceDue(); err != nil {
		return advanced, err
	}
	cur := w.current()
	before := cur.eng.TreesProcessed()
	if err := cur.eng.Merge(o); err != nil {
		return advanced, err
	}
	cur.trees.Add(cur.eng.TreesProcessed() - before)
	return advanced, nil
}

// Advance seals the current slice and starts a fresh one now,
// expiring the oldest slice when the ring is full.
func (w *Windowed) Advance() error { return w.advanceAt(w.clock()) }

// AdvanceDue advances once per elapsed SliceDur, with slice starts
// aligned to the cadence grid so a busy advance never drifts — the
// step every mutator takes first, and the background ticker's whole
// job. After a long idle gap every live slice has expired: rather than
// rotating the ring Slices more times, the window resets to a single
// fresh slice. A no-op without a clock cadence.
//
//lint:hotpath
func (w *Windowed) AdvanceDue() (advanced bool, err error) {
	if w.pol.SliceDur <= 0 {
		return false, nil
	}
	now := w.clock()
	for n := 0; ; n++ {
		cur := w.current()
		if now.Sub(cur.start) < w.pol.SliceDur {
			return n > 0, nil
		}
		if n >= w.pol.Slices {
			//lint:allow hotpath full reset after an idle gap longer than the window, not the per-update path
			return true, w.reset(now)
		}
		//lint:allow hotpath clock-cadence rotation, amortized over a slice's lifetime
		if err := w.advanceAt(cur.start.Add(w.pol.SliceDur)); err != nil {
			return true, err
		}
	}
}

// advanceAt seals the current slice and appends a fresh one starting
// at start, dropping the oldest slice when the ring is at capacity.
// The ring is replaced copy-on-write so lock-free Status readers always
// see a consistent slice list.
func (w *Windowed) advanceAt(start time.Time) error {
	fresh, err := w.newSlice(start)
	if err != nil {
		return err
	}
	r := *w.ring.Load()
	keep := r
	if len(r) >= w.pol.Slices {
		drop := len(r) - w.pol.Slices + 1
		keep = r[drop:]
		w.expires.Add(int64(drop))
	}
	next := make([]*slice, 0, len(keep)+1)
	next = append(next, keep...)
	next = append(next, fresh)
	w.ring.Store(&next)
	w.advances.Add(1)
	return nil
}

// reset replaces the whole ring with one fresh slice — the idle
// catch-up path where every live slice has already expired.
func (w *Windowed) reset(start time.Time) error {
	fresh, err := w.newSlice(start)
	if err != nil {
		return err
	}
	old := *w.ring.Load()
	ring := []*slice{fresh}
	w.ring.Store(&ring)
	w.advances.Add(1)
	w.expires.Add(int64(len(old)))
	return nil
}

// Build merges the live slices into a fresh engine and reports how
// many slices it covers. The engine starts as a clone of the empty
// template (so it shares the seeds, modulus and plan cache) with a
// scratch metrics sink — Merge absorbs each operand's metrics into the
// receiver's, and that absorption must not touch the slices' own
// counters or the persistent serving sink. After the merge the
// persistent sink is re-seeded with the merged totals and swapped in,
// so query accounting survives from one build to the next.
//
// Because the slices' stream counters are integers and the merge is a
// cell-wise sum, the built engine is bit-identical — bytes and
// estimates — to a fresh engine fed the live documents in order. The
// caller must not mutate it: it is meant to be published frozen.
func (w *Windowed) Build() (*core.Engine, int, error) {
	m, err := w.template.Clone()
	if err != nil {
		return nil, 0, fmt.Errorf("window: build: %w", err)
	}
	m.SetMetrics(nil)
	r := *w.ring.Load()
	for _, sl := range r {
		if err := m.Merge(sl.eng); err != nil {
			return nil, 0, fmt.Errorf("window: build: %w", err)
		}
	}
	w.met.SeedCounts(m.TreesProcessed(), m.PatternsProcessed())
	m.SetMetrics(w.met)
	return m, len(r), nil
}

// Trees returns the number of trees currently live in the window
// (net of removals), summed across slices. Lock-free.
func (w *Windowed) Trees() int64 {
	var n int64
	for _, sl := range *w.ring.Load() {
		n += sl.trees.Load()
	}
	return n
}

// Patterns returns the live window's pattern-occurrence total (the
// one-dimensional stream length), summed across slices. Lock-free.
func (w *Windowed) Patterns() int64 {
	var n int64
	for _, sl := range *w.ring.Load() {
		n += sl.eng.Metrics().Snapshot().Patterns
	}
	return n
}

// Status collects the ring's part of the window section of the
// observability snapshot: policy, per-slice occupancy and age, and the
// advance/expire counters. The merged-state provenance and the rebuild
// count belong to whoever publishes Build results and are left zero.
// Lock-free — safe to call while ingest runs.
func (w *Windowed) Status() *obs.WindowSnapshot {
	now := w.clock()
	r := *w.ring.Load()
	ws := &obs.WindowSnapshot{
		Slices:     w.pol.Slices,
		SliceTrees: w.pol.SliceTrees,
		SliceDurMS: w.pol.SliceDur.Milliseconds(),
		Advances:   w.advances.Load(),
		Expires:    w.expires.Load(),
	}
	for i, sl := range r {
		t := sl.trees.Load()
		ws.LiveTrees += t
		ws.Live = append(ws.Live, obs.WindowSliceSnapshot{
			Trees:    t,
			Patterns: sl.eng.Metrics().Snapshot().Patterns,
			AgeMS:    now.Sub(sl.start).Milliseconds(),
			Current:  i == len(r)-1,
		})
	}
	return ws
}
