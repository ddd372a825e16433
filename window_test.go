package sketchtree

import (
	"strings"
	"testing"
	"time"
)

// windowSafe returns a Safe with the window enabled under pol.
func windowSafe(t *testing.T, pol WindowPolicy) *Safe {
	t.Helper()
	s, err := NewSafe(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableWindow(pol); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.DisableWindow)
	return s
}

// addDocs feeds the first n documents of the equivalence pool.
func addDocs(t *testing.T, s *Safe, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.AddXML(strings.NewReader(windowEquivDocs[i%len(windowEquivDocs)])); err != nil {
			t.Fatal(err)
		}
	}
}

// mustWindowStats reads the window section, failing if it is off.
func mustWindowStats(t *testing.T, s *Safe) *WindowStats {
	t.Helper()
	ws, ok := s.WindowStats()
	if !ok {
		t.Fatal("WindowStats reports the window disabled")
	}
	return ws
}

// Each publish of the merged window is one rebuild: the first happens
// at EnableWindow, the next once RefreshEveryTrees updates accumulate,
// and the merged engine reports queries through one persistent sink
// across rebuilds.
func TestWindowRebuildGenerationAndCadence(t *testing.T) {
	s := windowSafe(t, WindowPolicy{Slices: 2, SliceTrees: 100, RefreshEveryTrees: 2})
	if got := mustWindowStats(t, s).Rebuilds; got != 1 {
		t.Fatalf("rebuilds after enable = %d, want 1", got)
	}
	addDocs(t, s, 1)
	if got := mustWindowStats(t, s).Rebuilds; got != 1 {
		t.Error("one update below the cadence must not rebuild")
	}
	addDocs(t, s, 1)
	ws := mustWindowStats(t, s)
	if ws.Rebuilds != 2 {
		t.Errorf("rebuilds after cadence hit = %d, want 2", ws.Rebuilds)
	}
	if ws.MergedTrees != 2 {
		t.Errorf("merged trees = %d, want 2", ws.MergedTrees)
	}

	q := Pattern("a", Pattern("b"))
	if _, err := s.CountOrdered(q); err != nil {
		t.Fatal(err)
	}
	if err := s.RefreshWindow(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CountOrdered(q); err != nil {
		t.Fatal(err)
	}
	if got := mustWindowStats(t, s).Rebuilds; got != 3 {
		t.Errorf("rebuilds after RefreshWindow = %d, want 3", got)
	}
	if got := s.Stats().Queries.Count; got != 2 {
		t.Errorf("Stats().Queries.Count = %d, want 2 (must survive rebuilds)", got)
	}
}

func TestSafeStatsCarriesWindowSection(t *testing.T) {
	s := windowSafe(t, WindowPolicy{Slices: 4, SliceTrees: 2})
	addDocs(t, s, 5)
	st := s.Stats()
	if st.Window == nil {
		t.Fatal("Stats().Window is nil")
	}
	if st.Window.Slices != 4 || st.Window.SliceTrees != 2 {
		t.Errorf("window policy not reflected: %+v", st.Window)
	}
	if st.Window.LiveTrees != 5 {
		t.Errorf("live trees = %d, want 5", st.Window.LiveTrees)
	}
	var sum int64
	for _, sl := range st.Window.Live {
		if sl.Trees < 0 {
			t.Errorf("negative slice count: %+v", sl)
		}
		sum += sl.Trees
	}
	if sum != st.Window.LiveTrees {
		t.Errorf("LiveTrees %d != Σ slices %d", st.Window.LiveTrees, sum)
	}
	if st.Window.Rebuilds < 1 {
		t.Error("no rebuilds recorded")
	}
}

// The published merge covers exactly the live slices: SnapshotStats
// and the window section report the same provenance, and after
// advances expire the oldest slices it covers only what is left.
func TestWindowPublishedViewCoversLiveSlices(t *testing.T) {
	s := windowSafe(t, WindowPolicy{Slices: 3, SliceTrees: 4, RefreshEveryTrees: -1})
	addDocs(t, s, 23) // 5 sealed slices of 4, 2 expired; 3 docs in the current one
	if err := s.RefreshWindow(); err != nil {
		t.Fatal(err)
	}
	const live = 4 + 4 + 3
	trees, _, ok := s.SnapshotStats()
	if !ok || trees != live {
		t.Fatalf("SnapshotStats = %d, %v; want %d, true", trees, ok, live)
	}
	ws := mustWindowStats(t, s)
	if ws.MergedTrees != live || ws.MergedSlices != 3 || ws.LiveTrees != live {
		t.Errorf("window provenance = merged %d over %d slices, live %d; want %d over 3, live %d",
			ws.MergedTrees, ws.MergedSlices, ws.LiveTrees, live, live)
	}
}

// An idle clock-cadence window expires every slice on the background
// loop alone, and publishes the now-empty merge.
func TestWindowIdleExpiryPublishesEmptyMerge(t *testing.T) {
	s := windowSafe(t, WindowPolicy{Slices: 2, SliceDur: 5 * time.Millisecond})
	addDocs(t, s, 4)
	if err := s.RefreshWindow(); err != nil {
		t.Fatal(err)
	}
	if trees, _, _ := s.SnapshotStats(); trees != 4 {
		t.Fatalf("merged trees before expiry = %d, want 4", trees)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if trees, _, _ := s.SnapshotStats(); trees == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle window never published an empty merge: %+v", mustWindowStats(t, s))
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.TreesProcessed(); got != 0 {
		t.Errorf("live trees after full expiry = %d, want 0", got)
	}
}
