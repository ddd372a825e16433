package core

import (
	"testing"

	"sketchtree/internal/tree"
)

// allocTree is a modest tree with repeated labels, the shape of a
// steady-state stream element.
func allocTree() *tree.Tree {
	return tree.NewTree(tree.T("A",
		tree.T("B", tree.T("C"), tree.T("D")),
		tree.T("B", tree.T("C")),
		tree.T("E", tree.T("B", tree.T("C"), tree.T("D")))))
}

// TestAddTreeZeroAlloc pins the hot-path contract of the speed
// campaign: once warmed up, AddTree performs zero heap allocations per
// tree — the enumerator recycles its slabs, the pattern encoder and ξ
// preparation reuse their buffers, and the batched sketch update walks
// preallocated arrays. Guarded for both top-k settings, since the
// Algorithm 4 path has its own scratch (estimator, eviction prep,
// entry free list).
func TestAddTreeZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		topk int
	}{
		{"TopKDisabled", 0},
		{"TopKEnabled", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.TrackExact = false // the exact shadow's hash map is off-contract
			cfg.TopK = tc.topk
			e := mustEngine(t, cfg)
			tr := allocTree()
			for i := 0; i < 20; i++ { // warm slabs, maps, pools, trackers
				if err := e.AddTree(tr); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := e.AddTree(tr); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("AddTree allocates %.1f times per tree, want 0", allocs)
			}
		})
	}
}

// TestEstimateOrderedCacheHitZeroAlloc pins the query-side contract: a
// plan-cache hit answers an ordered count with zero allocations (the
// key is built in a pooled buffer, probed by byte slice, and the
// estimator scratch comes from a pool). With top-k on, the query value
// is tracked, so its deleted instances are compensated — as a shift of
// the row sums, with no per-cell vector — and the answer must equal
// the error-bar path's, which still builds the vector.
func TestEstimateOrderedCacheHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool drops entries at random, so pooled Get may allocate")
	}
	for _, tc := range []struct {
		name string
		topk int
	}{
		{"TopKDisabled", 0},
		{"TopKTracked", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.TrackExact = false
			cfg.TopK = tc.topk
			e := mustEngine(t, cfg)
			for i := 0; i < 3; i++ {
				if err := e.AddTree(allocTree()); err != nil {
					t.Fatal(err)
				}
			}
			q := tree.T("A", tree.T("B", tree.T("C")))
			got, err := e.EstimateOrdered(q) // primes the plan cache
			if err != nil {
				t.Fatal(err)
			}
			if tc.topk > 0 {
				if f := e.trackedFreq(e.orderedValue(q)); f == 0 {
					t.Fatal("query value is not tracked; the case would not exercise compensation")
				}
				want, err := e.EstimateOrderedWithError(q)
				if err != nil {
					t.Fatal(err)
				}
				if got != want.Value {
					t.Fatalf("shift-compensated estimate %v, vector-compensated %v", got, want.Value)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := e.EstimateOrdered(q); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("cache-hit EstimateOrdered allocates %.1f times per query, want 0", allocs)
			}
		})
	}
}
