package core

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"sketchtree/internal/tree"
)

// cloneConfig exercises every optional subsystem the clone must carry:
// top-k trackers, the structural summary, and the exact baseline.
func cloneConfig() Config {
	cfg := testConfig()
	cfg.TopK = 5
	cfg.BuildSummary = true
	return cfg
}

func TestCloneBitIdentical(t *testing.T) {
	e := mustEngine(t, cloneConfig())
	figure1Stream(t, e)
	c, err := e.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if c.TreesProcessed() != e.TreesProcessed() || c.PatternsProcessed() != e.PatternsProcessed() {
		t.Fatalf("clone counters %d/%d != %d/%d",
			c.TreesProcessed(), c.PatternsProcessed(), e.TreesProcessed(), e.PatternsProcessed())
	}
	queries := []*tree.Node{
		tree.T("A", tree.T("B")),
		tree.T("A", tree.T("B"), tree.T("C")),
		tree.T("A", tree.T("B"), tree.T("B"), tree.T("C")),
	}
	for _, q := range queries {
		want, err1 := e.EstimateOrdered(q)
		got, err2 := c.EstimateOrdered(q)
		if err1 != nil || err2 != nil || want != got {
			t.Errorf("%s: ordered clone %v != source %v (errs %v/%v)", q, got, want, err1, err2)
		}
		wu, err1 := e.EstimateUnordered(q)
		gu, err2 := c.EstimateUnordered(q)
		if err1 != nil || err2 != nil || wu != gu {
			t.Errorf("%s: unordered clone %v != source %v (errs %v/%v)", q, gu, wu, err1, err2)
		}
	}
	if w, g := e.EstimateSelfJoinSize(true), c.EstimateSelfJoinSize(true); w != g {
		t.Errorf("self-join clone %v != source %v", g, w)
	}
	wf, gf := e.FrequentPatterns(), c.FrequentPatterns()
	if len(wf) != len(gf) {
		t.Fatalf("clone tracks %d frequent patterns, source %d", len(gf), len(wf))
	}
	for i := range wf {
		if wf[i] != gf[i] {
			t.Errorf("frequent[%d]: clone %+v != source %+v", i, gf[i], wf[i])
		}
	}
}

// TestCloneEvolvesLikeSource feeds a clone and its source the same
// further stream and requires byte-identical synopses afterwards. A
// tie at a tracker's minimum is broken by heap position, so this holds
// only because Clone copies each tracker's heap layout instead of
// rebuilding the heap from the sorted list (several of these streams
// diverge under a rebuilt heap).
func TestCloneEvolvesLikeSource(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPatternEdges = 2
	cfg.S1, cfg.S2 = 6, 4
	cfg.VirtualStreams = 3
	cfg.TopK = 4
	cfg.TrackExact = false
	for seed := uint64(1); seed <= 16; seed++ {
		e := mustEngine(t, cfg)
		rng := rand.New(rand.NewPCG(seed, 8))
		for i := 0; i < 50; i++ {
			if err := e.AddTree(skewedTree(rng)); err != nil {
				t.Fatal(err)
			}
		}
		c, err := e.Clone()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			tr := skewedTree(rng)
			if err := e.AddTree(tr); err != nil {
				t.Fatal(err)
			}
			if err := c.AddTree(tr); err != nil {
				t.Fatal(err)
			}
		}
		want, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: clone fed the source's stream diverged from the source", seed)
		}
		for i, tr := range e.trackers {
			if got, want := c.trackers[i].Churn(), tr.Churn(); got != want {
				t.Errorf("seed %d stream %d: clone churn %+v, source %+v", seed, i, got, want)
			}
		}
	}
}

// TestCloneIsFrozen checks snapshot isolation: updates to the source
// after cloning do not leak into the clone.
func TestCloneIsFrozen(t *testing.T) {
	e := mustEngine(t, cloneConfig())
	figure1Stream(t, e)
	c, err := e.Clone()
	if err != nil {
		t.Fatal(err)
	}
	q := tree.T("A", tree.T("B"))
	before, err := c.EstimateOrdered(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := e.AddTree(tree.NewTree(tree.T("A", tree.T("B")))); err != nil {
			t.Fatal(err)
		}
	}
	after, err := c.EstimateOrdered(q)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("clone answer drifted after source updates: %v -> %v", before, after)
	}
	live, err := e.EstimateOrdered(q)
	if err != nil {
		t.Fatal(err)
	}
	if live == before {
		t.Fatalf("source should have moved past the clone (both %v)", live)
	}
}

// TestCloneSharesMetrics checks queries served from a clone are counted
// in the source engine's observability stats.
func TestCloneSharesMetrics(t *testing.T) {
	e := mustEngine(t, testConfig())
	figure1Stream(t, e)
	c, err := e.Clone()
	if err != nil {
		t.Fatal(err)
	}
	base := e.Stats().Queries.Count
	if _, err := c.EstimateOrdered(tree.T("A", tree.T("B"))); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Queries.Count; got != base+1 {
		t.Fatalf("source query count %d, want %d (clone queries share metrics)", got, base+1)
	}
}

// TestCloneAuditNotCarried checks the exact-shadow auditor stays with
// the live engine.
func TestCloneAuditNotCarried(t *testing.T) {
	e := mustEngine(t, testConfig())
	if err := e.EnableAudit(4); err != nil {
		t.Fatal(err)
	}
	figure1Stream(t, e)
	c, err := e.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if !e.AuditEnabled() {
		t.Fatal("source lost its auditor")
	}
	if c.AuditEnabled() {
		t.Fatal("clone should not carry the auditor")
	}
}
