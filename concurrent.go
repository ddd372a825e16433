package sketchtree

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"sketchtree/internal/core"
	"sketchtree/internal/obs"
)

// Safe wraps a SketchTree for concurrent use: updates take the write
// lock, queries the read lock. Queries are pure reads of the synopsis,
// so any number may run concurrently between updates. An added tree is
// prepared before the write lock is taken — enumeration, fingerprints
// and ξ sign bits depend only on the immutable mapping — so concurrent
// writers prepare in parallel and the lock covers only the counter
// adds.
//
// EnableSnapshots and EnableWindow switch the Count*/Estimate* reads
// to a lock-free path served from a published frozen view — see
// SnapshotPolicy and WindowPolicy.
//
// The zero Safe is not valid; construct with NewSafe.
type Safe struct {
	mu sync.RWMutex // the only lock updates take, in every mode
	st *SketchTree

	// prepared pools the per-tree scratch of AddTree's prepare step, one
	// in use per concurrent writer.
	prepared sync.Pool

	// The serving slot (see serve.go), shared by snapshot and window
	// mode. view is the published frozen state (nil = locked path);
	// every is the update cadence (guarded by mu); since counts updates
	// since the last publish; serveMu serializes Enable/Disable;
	// stopLoop ends and joins the background loop.
	view     atomic.Pointer[view]
	every    int64
	since    atomic.Int64
	serveMu  sync.Mutex
	stopLoop func()
}

// NewSafe creates a concurrency-safe SketchTree.
func NewSafe(cfg Config) (*Safe, error) {
	st, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Safe{st: st}, nil
}

// RestoreSafe reconstructs a concurrency-safe SketchTree from
// MarshalBinary output.
func RestoreSafe(data []byte) (*Safe, error) {
	st, err := Restore(data)
	if err != nil {
		return nil, err
	}
	return &Safe{st: st}, nil
}

// AddTree folds one tree into the synopsis (into the current window
// slice while the window is enabled). The tree is prepared outside the
// write lock; only the counter adds run under it.
func (s *Safe) AddTree(t *Tree) error {
	p, err := s.prepare(t)
	if err != nil {
		return err
	}
	defer s.prepared.Put(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.windowView(); v != nil {
		return s.noteUpdateLocked(v.ring.Add(p))
	}
	return s.noteUpdateLocked(false, s.st.e.ApplyPrepared(p))
}

// prepare runs the lock-free half of an update: t's occurrences,
// values and ξ sign bits, into pooled scratch. It reads only the live
// engine's mapping — fingerprinter, ξ family and seeds — which never
// changes after construction and which every window slice and snapshot
// clone shares, so it takes no lock.
func (s *Safe) prepare(t *Tree) (*core.Prepared, error) {
	p, _ := s.prepared.Get().(*core.Prepared)
	if p == nil {
		p = new(core.Prepared)
	}
	if err := s.st.e.PrepareTree(t, p); err != nil {
		s.prepared.Put(p)
		return nil, err
	}
	return p, nil
}

// RemoveTree deletes one earlier occurrence of the tree (from the
// current window slice while the window is enabled — a document that
// has rotated into an older slice leaves by expiry, not deletion).
func (s *Safe) RemoveTree(t *Tree) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.windowView(); v != nil {
		return s.noteUpdateLocked(v.ring.Remove(t))
	}
	return s.noteUpdateLocked(false, s.st.RemoveTree(t))
}

// AddXML parses and prepares one XML document outside the lock and
// folds it into the synopsis under the write lock.
func (s *Safe) AddXML(r io.Reader) error {
	t, err := ParseXML(r)
	if err != nil {
		return err
	}
	return s.AddTree(t)
}

// AddXMLForest streams every tree of a rooted XML forest document into
// the synopsis. The write lock is taken per tree, so queries and other
// updates interleave with a long-running forest load; the forest is
// not applied atomically.
func (s *Safe) AddXMLForest(r io.Reader) error {
	_, err := s.AddXMLForestCount(r)
	return err
}

// AddXMLForestCount is AddXMLForest reporting how many trees were
// applied before any error. Because the forest is committed tree by
// tree, a mid-stream failure leaves the applied prefix in the synopsis
// — the count is the client's reconciliation contract (see the
// /ingest?forest=1 error body in internal/server).
func (s *Safe) AddXMLForestCount(r io.Reader) (int64, error) {
	var applied int64
	err := streamForestTimed(s.ingestMetrics(), r, func(t *Tree) error {
		if err := s.AddTree(t); err != nil {
			return err
		}
		applied++
		return nil
	})
	return applied, err
}

// ingestMetrics returns the sink producers should attribute parse time
// to: the window's persistent serving metrics while the window is
// enabled, the live engine's otherwise. Both are atomic counter
// blocks, never mutable sketch state, so no lock is needed.
func (s *Safe) ingestMetrics() *obs.Metrics {
	if v := s.windowView(); v != nil {
		return v.ring.Metrics()
	}
	return s.st.e.Metrics()
}

// EnableMetrics switches stage timers and query-latency measurement on
// or off (see SketchTree.EnableMetrics).
func (s *Safe) EnableMetrics(on bool) {
	// The metrics flag is itself atomic; no lock needed.
	//lint:allow lockdiscipline EnableMetrics only flips the obs layer's atomic flag; taking s.mu would stall behind long updates for nothing
	s.st.EnableMetrics(on)
	if v := s.windowView(); v != nil {
		s.mu.Lock() // the ring's timer flags change with its slices
		v.ring.EnableTimers(on)
		s.mu.Unlock()
	}
}

// Stats reads the observability snapshot (the merged window engine's,
// with the Window section attached, while the window is enabled). The
// counters are atomics, so no lock is taken: Stats never blocks behind
// a long update.
func (s *Safe) Stats() Stats {
	if v := s.windowView(); v != nil {
		st := v.st.Stats()
		st.Window = v.windowStats()
		return st
	}
	//lint:allow lockdiscipline Stats reads only the obs layer's atomic counters; lock-freedom is the documented point of the method
	return s.st.Stats()
}

// Merge folds a plain SketchTree's synopsis into this one under the
// write lock — the fan-in half of parallel ingestion (see Ingestor and
// SketchTree.Merge for the preconditions: identical Config including
// Seed, top-k tracking disabled on both operands). The operand is only
// read, but it is not locked: it must not be mutated concurrently.
func (s *Safe) Merge(o *SketchTree) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.windowView(); v != nil {
		return s.noteUpdateLocked(v.ring.Absorb(o.e))
	}
	return s.noteUpdateLocked(false, s.st.Merge(o))
}

// CountOrdered estimates COUNT_ord(Q).
func (s *Safe) CountOrdered(q *Node) (float64, error) {
	if st := s.snapshotTree(); st != nil {
		return st.CountOrdered(q)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.CountOrdered(q)
}

// CountUnordered estimates COUNT(Q).
func (s *Safe) CountUnordered(q *Node) (float64, error) {
	if st := s.snapshotTree(); st != nil {
		return st.CountUnordered(q)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.CountUnordered(q)
}

// CountOrderedSet estimates the total frequency of distinct patterns.
func (s *Safe) CountOrderedSet(qs []*Node) (float64, error) {
	if st := s.snapshotTree(); st != nil {
		return st.CountOrderedSet(qs)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.CountOrderedSet(qs)
}

// CountOrderedWithError is CountOrdered with an error bar.
func (s *Safe) CountOrderedWithError(q *Node) (Estimate, error) {
	if st := s.snapshotTree(); st != nil {
		return st.CountOrderedWithError(q)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.CountOrderedWithError(q)
}

// CountUnorderedWithError is CountUnordered with an error bar.
func (s *Safe) CountUnorderedWithError(q *Node) (Estimate, error) {
	if st := s.snapshotTree(); st != nil {
		return st.CountUnorderedWithError(q)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.CountUnorderedWithError(q)
}

// CountOrderedSetWithError is CountOrderedSet with an error bar.
func (s *Safe) CountOrderedSetWithError(qs []*Node) (Estimate, error) {
	if st := s.snapshotTree(); st != nil {
		return st.CountOrderedSetWithError(qs)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.CountOrderedSetWithError(qs)
}

// HealthReport diagnoses the synopsis under the read lock (it reads
// the sketch counters, unlike the lock-free Stats). While the window
// is enabled it diagnoses the published merged engine, lock-free (the
// merge is frozen).
func (s *Safe) HealthReport() HealthReport {
	if v := s.windowView(); v != nil {
		return v.st.HealthReport()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.HealthReport()
}

// EnableAudit attaches the exact-shadow auditor; must run before any
// tree is added, and is mutually exclusive with window serving (the
// auditor's sample has no well-defined union across slices).
func (s *Safe) EnableAudit(k int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.windowView() != nil {
		return fmt.Errorf("sketchtree: audit and window serving are mutually exclusive")
	}
	return s.st.EnableAudit(k)
}

// AuditEnabled reports whether the exact-shadow auditor is attached.
func (s *Safe) AuditEnabled() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.AuditEnabled()
}

// AuditReport scores the audited sample against the live sketch under
// the read lock.
func (s *Safe) AuditReport() (AuditReport, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.AuditReport()
}

// EstimateExpression estimates a +, −, × expression over counts.
func (s *Safe) EstimateExpression(e Expr) (float64, error) {
	if st := s.snapshotTree(); st != nil {
		return st.EstimateExpression(e)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.EstimateExpression(e)
}

// CountExtended estimates a wildcard/descendant query.
func (s *Safe) CountExtended(q *ExtQuery) (float64, bool, error) {
	if st := s.snapshotTree(); st != nil {
		return st.CountExtended(q)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.CountExtended(q)
}

// TreesProcessed returns the number of trees folded in (live inside
// the window, while the window is enabled).
func (s *Safe) TreesProcessed() int64 {
	if v := s.windowView(); v != nil {
		return v.ring.Trees()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.TreesProcessed()
}

// PatternsProcessed returns the one-dimensional stream length (live
// inside the window, while the window is enabled).
func (s *Safe) PatternsProcessed() int64 {
	if v := s.windowView(); v != nil {
		return v.ring.Patterns()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.PatternsProcessed()
}

// MemoryBytes reports the synopsis footprint (the merged window
// engine's, while the window is enabled; each live slice adds roughly
// the same again).
func (s *Safe) MemoryBytes() Memory {
	if v := s.windowView(); v != nil {
		return v.st.MemoryBytes()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.MemoryBytes()
}

// FrequentPatterns returns the tracked heavy hitters.
func (s *Safe) FrequentPatterns() []FrequentPattern {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.FrequentPatterns()
}

// CountAlternatives estimates a pattern with '|'-separated label
// alternatives.
func (s *Safe) CountAlternatives(q *Node) (float64, error) {
	if st := s.snapshotTree(); st != nil {
		return st.CountAlternatives(q)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.CountAlternatives(q)
}

// CountOrderedUpperBound bounds COUNT_ord(Q) for patterns larger than
// Config.MaxPatternEdges.
func (s *Safe) CountOrderedUpperBound(q *Node) (float64, error) {
	if st := s.snapshotTree(); st != nil {
		return st.CountOrderedUpperBound(q)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.CountOrderedUpperBound(q)
}

// EstimateSelfJoinSize estimates SJ(S) = Σ f² of the pattern stream.
func (s *Safe) EstimateSelfJoinSize(compensated bool) float64 {
	if st := s.snapshotTree(); st != nil {
		return st.EstimateSelfJoinSize(compensated)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.EstimateSelfJoinSize(compensated)
}

// Config returns the effective (normalized) configuration.
func (s *Safe) Config() Config {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.Config()
}

// MarshalBinary serializes the synopsis under the read lock. While the
// window is enabled it serializes the published merged window,
// lock-free — the windowed shard's half of the cluster pull protocol,
// trailing the live ring by at most the rebuild cadence.
func (s *Safe) MarshalBinary() ([]byte, error) {
	if v := s.windowView(); v != nil {
		return v.st.MarshalBinary()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.MarshalBinary()
}

// Save writes the serialized synopsis to w. The snapshot is taken
// under the read lock; the write to w happens outside it, so a slow
// writer does not block updates.
func (s *Safe) Save(w io.Writer) error {
	data, err := s.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
