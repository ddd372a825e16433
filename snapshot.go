package sketchtree

import (
	"fmt"
	"time"
)

// SnapshotPolicy configures Safe snapshot serving: how often the
// frozen read snapshot is refreshed from the live synopsis.
type SnapshotPolicy struct {
	// EveryTrees refreshes the snapshot after this many synopsis
	// updates (AddTree, RemoveTree or Merge calls). 0 selects
	// DefaultSnapshotEveryTrees; the bound is exact — a served answer is
	// never more than EveryTrees updates behind the live synopsis.
	EveryTrees int

	// MaxAge additionally refreshes the snapshot in the background at
	// this period while updates have occurred since the last refresh,
	// so a stalled stream still converges to the live state. 0 disables
	// the timer (refreshes happen only on the update path and via
	// RefreshSnapshot).
	MaxAge time.Duration
}

// DefaultSnapshotEveryTrees is the refresh interval selected by a zero
// SnapshotPolicy.EveryTrees.
const DefaultSnapshotEveryTrees = 1000

// EnableSnapshots switches Safe into snapshot-isolated query serving:
// a frozen deep copy of the synopsis is published behind an atomic
// pointer and refreshed per the policy, and every Count*/Estimate*
// read is answered lock-free from the current snapshot — queries never
// block behind an in-flight update, and updates never wait for
// queries. Ingestion pays the refresh cost (one synopsis copy every
// EveryTrees updates).
//
// Answers are bit-identical to the locked path evaluated at the
// snapshot's refresh point; the staleness bound is EveryTrees updates
// (or MaxAge, whichever refresh fires first). Reads that inspect the
// live update state — Stats, HealthReport, AuditReport,
// FrequentPatterns, TreesProcessed, MarshalBinary — keep their
// existing locking semantics.
//
// Serving is opt-in and off by default. Snapshot and window serving
// share one serving slot, so enabling either while one is on is an
// error; call DisableSnapshots first to change the policy.
func (s *Safe) EnableSnapshots(p SnapshotPolicy) error {
	if p.EveryTrees < 0 {
		return fmt.Errorf("sketchtree: SnapshotPolicy.EveryTrees %d < 0", p.EveryTrees)
	}
	if p.MaxAge < 0 {
		return fmt.Errorf("sketchtree: SnapshotPolicy.MaxAge %v < 0", p.MaxAge)
	}
	if p.EveryTrees == 0 {
		p.EveryTrees = DefaultSnapshotEveryTrees
	}
	return s.startServing(nil, p.EveryTrees, p.MaxAge)
}

// DisableSnapshots stops snapshot serving: the background refresher
// (if any) is joined, the snapshot is released, and reads return to
// the locked path. A no-op when snapshots are not enabled.
func (s *Safe) DisableSnapshots() { s.stopServing(false) }

// RefreshSnapshot rebuilds the served snapshot from the live synopsis
// immediately, under the read lock (it waits for an in-flight update
// but not for other readers). Useful after a bulk load to expose the
// new state without waiting out the policy.
func (s *Safe) RefreshSnapshot() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v := s.view.Load(); v == nil || v.ring != nil {
		return fmt.Errorf("sketchtree: snapshots not enabled")
	}
	return s.publishLocked(nil)
}

// SnapshotTree returns the frozen synopsis currently serving reads (the
// merged window while the window is enabled), or nil when neither mode
// is on. The returned SketchTree never
// changes and is safe for concurrent queries; callers can pin it to
// answer a batch of queries against one consistent state.
func (s *Safe) SnapshotTree() *SketchTree { return s.snapshotTree() }

// SnapshotStats reports the served frozen state's provenance: the
// number of trees it covers and its age — the snapshot's, or while the
// window is enabled the published merged window's (which serves reads
// through the same slot). ok is false when neither is on.
func (s *Safe) SnapshotStats() (trees int64, age time.Duration, ok bool) {
	v := s.view.Load()
	if v == nil {
		return 0, 0, false
	}
	return v.trees, time.Since(v.built), true
}
