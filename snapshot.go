package sketchtree

import (
	"fmt"
	"time"

	"sketchtree/internal/obs"
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

// snapState is one published snapshot: the frozen synopsis plus its
// provenance (tree count and wall time at refresh).
type snapState struct {
	st    *SketchTree
	trees int64
	taken time.Time
}

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
// Serving is opt-in and off by default. Enabling twice is an error;
// call DisableSnapshots first to change the policy.
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
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.snapEvery.Load() != 0 {
		return fmt.Errorf("sketchtree: snapshots already enabled")
	}
	if s.win.Load() != nil {
		return fmt.Errorf("sketchtree: snapshot serving and window serving are mutually exclusive (the window publishes its own merged snapshot)")
	}
	s.mu.RLock()
	err := s.refreshLocked()
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	s.snapEvery.Store(int64(p.EveryTrees))
	if p.MaxAge > 0 {
		stop, done := make(chan struct{}), make(chan struct{})
		s.snapStop, s.snapDone = stop, done
		go s.refreshLoop(p.MaxAge, stop, done)
	}
	return nil
}

// DisableSnapshots stops snapshot serving: the background refresher
// (if any) is joined, the snapshot is released, and reads return to
// the locked path. A no-op when snapshots are not enabled.
func (s *Safe) DisableSnapshots() {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.snapEvery.Swap(0) == 0 {
		return
	}
	if s.snapStop != nil {
		close(s.snapStop)
		<-s.snapDone
		s.snapStop, s.snapDone = nil, nil
	}
	s.snap.Store(nil)
}

// RefreshSnapshot rebuilds the served snapshot from the live synopsis
// immediately, under the read lock (it waits for an in-flight update
// but not for other readers). Useful after a bulk load to expose the
// new state without waiting out the policy.
func (s *Safe) RefreshSnapshot() error {
	if s.snapEvery.Load() == 0 {
		return fmt.Errorf("sketchtree: snapshots not enabled")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.refreshLocked()
}

// SnapshotTree returns the frozen synopsis currently serving reads, or
// nil when snapshot serving is off. The returned SketchTree never
// changes and is safe for concurrent queries; callers can pin it to
// answer a batch of queries against one consistent state.
func (s *Safe) SnapshotTree() *SketchTree { return s.snapshotTree() }

// SnapshotStats reports the served snapshot's provenance: the number
// of trees it covers and its age. While the window is enabled it
// reports the published merged window (which serves reads through the
// same frozen-state path). ok is false when neither is on.
func (s *Safe) SnapshotStats() (trees int64, age time.Duration, ok bool) {
	if w := s.win.Load(); w != nil {
		if m := w.Merged(); m != nil {
			return m.Trees, time.Since(m.Built), true
		}
		return 0, 0, false
	}
	if s.snapEvery.Load() == 0 {
		return 0, 0, false
	}
	sn := s.snap.Load()
	if sn == nil {
		return 0, 0, false
	}
	return sn.trees, time.Since(sn.taken), true
}

// snapshotTree gates the lock-free read path: non-nil only while
// snapshot serving or window serving is enabled and a frozen state is
// published. The two modes are mutually exclusive, so at most one
// branch fires.
func (s *Safe) snapshotTree() *SketchTree {
	if st := s.windowTree(); st != nil {
		return st
	}
	if s.snapEvery.Load() == 0 {
		return nil
	}
	if sn := s.snap.Load(); sn != nil {
		return sn.st
	}
	return nil
}

// refreshLocked publishes a fresh snapshot. The caller must hold mu
// (read or write), which serializes it against updates.
func (s *Safe) refreshLocked() error {
	m := s.st.e.Metrics()
	start := m.Now()
	// The engine clone (unlike SketchTree.Snapshot) shares the live
	// Metrics, so snapshot-served queries count in Safe's Stats.
	e, err := s.st.e.Clone()
	if err != nil {
		return err
	}
	sn := &SketchTree{e: e}
	s.updatesSince.Store(0)
	s.snap.Store(&snapState{st: sn, trees: sn.TreesProcessed(), taken: time.Now()})
	m.StageSince(obs.StagePublish, start)
	return nil
}

// noteUpdateLocked ticks the update counter and refreshes the snapshot
// when the policy's EveryTrees bound is reached. The caller holds the
// write lock. A refresh error keeps the previous snapshot serving (the
// staleness bound degrades to the next successful refresh); errors
// surface on explicit RefreshSnapshot calls.
func (s *Safe) noteUpdateLocked() {
	every := s.snapEvery.Load()
	if every == 0 {
		return
	}
	if s.updatesSince.Add(1) < every {
		return
	}
	_ = s.refreshLocked()
}

// refreshLoop is the MaxAge background refresher: while updates have
// occurred since the last refresh, it rebuilds the snapshot each
// period, so a paused stream's tail becomes visible without waiting
// for EveryTrees more updates.
func (s *Safe) refreshLoop(age time.Duration, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(age)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if s.updatesSince.Load() == 0 {
				continue
			}
			s.mu.RLock()
			_ = s.refreshLocked()
			s.mu.RUnlock()
		}
	}
}
