package sketchtree

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestServingModeSwitchUnderIngest cycles the one serving slot through
// EnableSnapshots → DisableSnapshots → EnableWindow → DisableWindow
// while writers keep updating and readers keep querying. Run with
// -race. Each transition must flip SnapshotStats/WindowStats/
// WindowEnabled exactly, the other mode's Enable must fail while one
// mode holds the slot, a snapshot taken after a window phase must
// answer == the locked path (not the window's leftover merge), and
// every background loop must be joined.
//
// Writers AddXML only while the window is on: EnableWindow requires an
// empty landmark synopsis, so outside window phases they Merge an
// empty synopsis instead — an update that ticks the publish cadence
// without adding a tree.
func TestServingModeSwitchUnderIngest(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := testConfig()
	cfg.S1 = 25
	cfg.S2 = 5
	s, err := NewSafe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var failed atomic.Bool
	var failMsg atomic.Value
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			failMsg.Store(fmt.Sprintf(format, args...))
		}
	}

	var gate sync.RWMutex // windowOn flips under the write side
	windowOn := false
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				gate.RLock()
				var err error
				if windowOn {
					err = s.AddXML(strings.NewReader(windowEquivDocs[i%len(windowEquivDocs)]))
				} else {
					err = s.Merge(empty)
				}
				gate.RUnlock()
				if err != nil {
					fail("update: %v", err)
					return
				}
			}
		}()
	}
	q := Pattern("a", Pattern("b"))
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.CountOrdered(q); err != nil {
					fail("CountOrdered: %v", err)
					return
				}
				_, _, _ = s.SnapshotStats()
				_, _ = s.WindowStats()
				_ = s.Stats()
				_ = s.TreesProcessed()
			}
		}()
	}

	// expect checks the three mode reports right after a transition.
	expect := func(step string, snapOK, winOK bool) {
		if _, _, ok := s.SnapshotStats(); ok != snapOK {
			fail("%s: SnapshotStats ok = %v, want %v", step, ok, snapOK)
		}
		if _, ok := s.WindowStats(); ok != winOK {
			fail("%s: WindowStats ok = %v, want %v", step, ok, winOK)
		}
		if on := s.WindowEnabled(); on != winOK {
			fail("%s: WindowEnabled = %v, want %v", step, on, winOK)
		}
	}
	snapPol := SnapshotPolicy{EveryTrees: 3, MaxAge: time.Millisecond}
	winPol := WindowPolicy{Slices: 3, SliceTrees: 8, SliceDur: 20 * time.Millisecond, RefreshEveryTrees: 4}
	for cycle := 0; cycle < 6 && !failed.Load(); cycle++ {
		if err := s.EnableSnapshots(snapPol); err != nil {
			fail("cycle %d: EnableSnapshots: %v", cycle, err)
			break
		}
		expect("EnableSnapshots", true, false)
		if err := s.EnableWindow(winPol); err == nil {
			fail("cycle %d: EnableWindow succeeded while snapshots hold the slot", cycle)
		}
		snapAnswer, err := s.SnapshotTree().CountOrdered(q)
		if err != nil {
			fail("cycle %d: snapshot CountOrdered: %v", cycle, err)
		}
		time.Sleep(2 * time.Millisecond)
		s.DisableSnapshots()
		expect("DisableSnapshots", false, false)
		lockedAnswer, err := s.CountOrdered(q)
		if err != nil {
			fail("cycle %d: locked CountOrdered: %v", cycle, err)
		}
		if snapAnswer != lockedAnswer {
			fail("cycle %d: snapshot answered %v, locked path %v", cycle, snapAnswer, lockedAnswer)
		}

		if err := s.EnableWindow(winPol); err != nil {
			fail("cycle %d: EnableWindow: %v", cycle, err)
			break
		}
		gate.Lock()
		windowOn = true
		gate.Unlock()
		expect("EnableWindow", true, true)
		if err := s.EnableSnapshots(snapPol); err == nil {
			fail("cycle %d: EnableSnapshots succeeded while the window holds the slot", cycle)
		}
		if err := s.AddXML(strings.NewReader(windowEquivDocs[0])); err != nil {
			fail("cycle %d: AddXML: %v", cycle, err)
		}
		if err := s.RefreshWindow(); err != nil {
			fail("cycle %d: RefreshWindow: %v", cycle, err)
		}
		// The window answer differs from the empty landmark's, so the
		// == check above would catch a snapshot serving a stale merge.
		if got, _ := s.SnapshotTree().CountOrdered(q); got == lockedAnswer {
			fail("cycle %d: window answer %v equals the empty landmark's", cycle, got)
		}
		time.Sleep(2 * time.Millisecond)
		gate.Lock()
		windowOn = false
		gate.Unlock()
		s.DisableWindow()
		expect("DisableWindow", false, false)
	}
	close(stop)
	wg.Wait()
	if failed.Load() {
		t.Fatal(failMsg.Load())
	}
	if n := s.TreesProcessed(); n != 0 {
		t.Errorf("landmark synopsis holds %d trees; window phases must not leak into it", n)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak after mode switching: %d -> %d\n%s",
			base, n, buf[:runtime.Stack(buf, true)])
	}
}
