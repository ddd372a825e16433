package sketchtree

import (
	"fmt"
	"time"

	"sketchtree/internal/core"
	"sketchtree/internal/obs"
	"sketchtree/internal/window"
)

// view is one published frozen state: the synopsis every lock-free
// Count*/Estimate* read is answered from, plus its provenance. A view
// never changes after publication. Snapshot serving (EnableSnapshots)
// and window serving (EnableWindow) publish the same type through the
// same slot; they differ only in how st is built.
type view struct {
	st     *SketchTree
	ring   *window.Windowed // window mode: the ring st was merged from; nil in snapshot mode
	trees  int64            // trees st covers
	slices int              // slices merged into st (1 in snapshot mode)
	built  time.Time        // wall time of the publish
	gen    int64            // publishes since the slot was filled, from 1
}

func (v *view) mode() string {
	if v.ring != nil {
		return "window"
	}
	return "snapshot"
}

// startServing fills the one serving slot: under the write lock it
// creates the window ring (wp non-nil; snapshot mode otherwise) and
// publishes the first view, then starts the background loop when
// period > 0. every is the update cadence — publish after that many
// updates, never on the update path when ≤ 0. The slot holds one mode
// at a time, so a second Enable in either mode fails here.
func (s *Safe) startServing(wp *WindowPolicy, every int, period time.Duration) error {
	s.serveMu.Lock()
	defer s.serveMu.Unlock()
	if v := s.view.Load(); v != nil {
		return fmt.Errorf("sketchtree: %s serving already enabled", v.mode())
	}
	s.mu.Lock()
	var ring *window.Windowed
	var err error
	if wp != nil {
		ring, err = window.New(s.st.e, *wp, nil)
	}
	if err == nil {
		s.every = int64(every)
		err = s.publishLocked(ring)
	}
	s.mu.Unlock()
	if err != nil || period <= 0 {
		return err
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go s.serveLoop(period, stop, done)
	s.stopLoop = func() { close(stop); <-done }
	return nil
}

// stopServing empties the serving slot if it holds the given mode. The
// background loop is joined first (its step takes mu); the view is then
// dropped under the write lock, so no publish still in flight can
// refill the slot and reads return to the locked path.
func (s *Safe) stopServing(windowMode bool) {
	s.serveMu.Lock()
	defer s.serveMu.Unlock()
	if v := s.view.Load(); v == nil || (v.ring != nil) != windowMode {
		return
	}
	if s.stopLoop != nil {
		s.stopLoop()
		s.stopLoop = nil
	}
	s.mu.Lock()
	s.view.Store(nil)
	s.mu.Unlock()
}

// publishLocked builds a view with the mode's build step and publishes
// it. Snapshot mode clones the live engine; the clone (unlike
// SketchTree.Snapshot) keeps sharing the live Metrics, so
// snapshot-served queries count in Safe's Stats. Window mode merges the
// ring (window.Windowed.Build), whose persistent sink carries query
// accounting across publishes. The caller holds mu: the write lock in
// window mode (the build re-seeds the ring's sink), at least the read
// lock in snapshot mode.
func (s *Safe) publishLocked(ring *window.Windowed) error {
	m := s.st.e.Metrics()
	if ring != nil {
		m = ring.Metrics()
	}
	start := m.Now()
	var e *core.Engine
	slices := 1
	var err error
	if ring != nil {
		e, slices, err = ring.Build()
	} else {
		e, err = s.st.e.Clone()
	}
	if err != nil {
		return err
	}
	gen := int64(1)
	if prev := s.view.Load(); prev != nil {
		gen = prev.gen + 1
	}
	s.since.Store(0)
	s.view.Store(&view{st: &SketchTree{e: e}, ring: ring, trees: e.TreesProcessed(), slices: slices, built: time.Now(), gen: gen})
	m.StageSince(obs.StagePublish, start)
	return nil
}

// noteUpdateLocked finishes an update under the write lock: err is the
// update's own result and advanced whether it moved the window ring.
// While a view is served, an applied update ticks the cadence counter,
// and a moved ring or a reached cadence publishes a fresh view. A failed
// publish is never the update's error — the update is already applied —
// so the previous view keeps serving until the next successful publish
// (the next update past the cadence, advance, background step or
// explicit refresh; explicit calls return the error).
//
//lint:hotpath
func (s *Safe) noteUpdateLocked(advanced bool, err error) error {
	if v := s.view.Load(); v != nil && (advanced || err == nil && s.every > 0 && s.since.Add(1) >= s.every) {
		_ = s.publishLocked(v.ring) //lint:allow hotpath merged-state rebuild at the refresh cadence, amortized
	}
	return err
}

// serveLoop is the serving slot's background loop, one step per period
// until stop closes.
func (s *Safe) serveLoop(period time.Duration, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.serveStep()
		}
	}
}

// serveStep is one background step. Snapshot mode republishes when
// updates arrived since the last publish (MaxAge), so a paused stream's
// tail becomes visible; window mode advances every slice the clock
// cadence has made due, so an idle stream's window still expires, and
// publishes if the ring moved. The slot cannot change mode under the
// loop: stopServing joins it before dropping the view.
func (s *Safe) serveStep() {
	v := s.view.Load()
	if v.ring == nil {
		if s.since.Load() > 0 {
			s.mu.RLock()
			_ = s.publishLocked(nil)
			s.mu.RUnlock()
		}
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if advanced, _ := v.ring.AdvanceDue(); advanced {
		_ = s.publishLocked(v.ring)
	}
}

// snapshotTree gates the lock-free read path: the served view's frozen
// synopsis, or nil when the serving slot is empty.
func (s *Safe) snapshotTree() *SketchTree {
	if v := s.view.Load(); v != nil {
		return v.st
	}
	return nil
}

// windowView returns the served view while window mode holds the slot,
// nil otherwise — the switch for the reads that window mode answers
// from the ring or the merged view instead of the (empty) live engine.
func (s *Safe) windowView() *view {
	if v := s.view.Load(); v != nil && v.ring != nil {
		return v
	}
	return nil
}
