package core

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"sketchtree/internal/enum"
	"sketchtree/internal/summary"
	"sketchtree/internal/tree"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxPatternEdges = 3
	cfg.S1 = 100
	cfg.S2 = 7
	cfg.VirtualStreams = 23
	cfg.TopK = 0
	cfg.TrackExact = true
	cfg.Seed = 12345
	return cfg
}

func mustEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// figure1Stream is a small stream in the spirit of paper Figure 1,
// with hand-computed pattern counts.
func figure1Stream(t testing.TB, e *Engine) {
	t.Helper()
	trees := []*tree.Tree{
		tree.NewTree(tree.T("A", tree.T("B"), tree.T("B"), tree.T("C"))),
		tree.NewTree(tree.T("A", tree.T("C"), tree.T("B"))),
		tree.NewTree(tree.T("A", tree.T("B"), tree.T("C"))),
	}
	for _, tr := range trees {
		if err := e.AddTree(tr); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.MaxPatternEdges = 0 },
		func(c *Config) { c.S1 = 0 },
		func(c *Config) { c.S2 = 0 },
		func(c *Config) { c.VirtualStreams = 0 },
		func(c *Config) { c.TopK = -1 },
		func(c *Config) { c.Independence = 3 },
		func(c *Config) { c.FingerprintDegree = 7 },
		func(c *Config) { c.FingerprintDegree = 63 },
		func(c *Config) { c.TopKProbability = 1.5 },
		func(c *Config) { c.TopKProbability = -0.5 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestTopKProbabilityNormalization(t *testing.T) {
	cases := []struct {
		name string
		in   float64
		want float64 // normalized value; NaN means New must fail
		ok   bool
	}{
		{"zero means default 1.0", 0, 1, true},
		{"explicit 1 kept", 1, 1, true},
		{"fraction kept", 0.25, 0.25, true},
		{"never sentinel kept", TopKProbabilityNever, TopKProbabilityNever, true},
		{"above one rejected", 1.01, 0, false},
		{"negative non-sentinel rejected", -0.5, 0, false},
		{"below sentinel rejected", -2, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.TopKProbability = c.in
			e, err := New(cfg)
			if c.ok != (err == nil) {
				t.Fatalf("New(TopKProbability=%v) error = %v, want ok=%v", c.in, err, c.ok)
			}
			if !c.ok {
				if !strings.Contains(err.Error(), "TopKProbability") {
					t.Errorf("error %q does not name the field", err)
				}
				return
			}
			if got := e.Config().TopKProbability; got != c.want {
				t.Errorf("normalized TopKProbability = %v, want %v", got, c.want)
			}
		})
	}
}

func TestTopKProbabilityNeverDisablesTracking(t *testing.T) {
	cfg := testConfig()
	cfg.TopK = 5
	cfg.TopKProbability = TopKProbabilityNever
	e := mustEngine(t, cfg)
	figure1Stream(t, e)
	if got := e.FrequentPatterns(); len(got) != 0 {
		t.Errorf("TopKProbabilityNever tracked %d patterns, want 0", len(got))
	}
	// The sketches still absorb every pattern, so estimates are
	// unaffected by the sentinel.
	got, err := e.EstimateOrdered(tree.T("A", tree.T("B")))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4) > 2.5 {
		t.Errorf("estimate under never-sampling = %v, want ≈ 4", got)
	}
}

// The exact counter is driven through the same enumerate → sequence →
// fingerprint pipeline, so hand-computed occurrence counts pin the
// whole update path down deterministically.
func TestExactCountsThroughPipeline(t *testing.T) {
	e := mustEngine(t, testConfig())
	figure1Stream(t, e)

	cases := []struct {
		q    *tree.Node
		want int64
	}{
		// A(B,C) ordered: T1 has B1C, B2C; T2 has none (C before B); T3 has one.
		{tree.T("A", tree.T("B"), tree.T("C")), 3},
		{tree.T("A", tree.T("C"), tree.T("B")), 1},
		// A/B single edge: 2 + 1 + 1.
		{tree.T("A", tree.T("B")), 4},
		{tree.T("A", tree.T("C")), 3},
		// A(B,B): only T1.
		{tree.T("A", tree.T("B"), tree.T("B")), 1},
		// A(B,B,C): only T1.
		{tree.T("A", tree.T("B"), tree.T("B"), tree.T("C")), 1},
		// Absent pattern.
		{tree.T("B", tree.T("C")), 0},
	}
	for _, c := range cases {
		v := e.PatternValue(c.q)
		if got := e.Exact().Count(v); got != c.want {
			t.Errorf("exact count of %s = %d, want %d", c.q, got, c.want)
		}
	}
	if e.TreesProcessed() != 3 {
		t.Errorf("TreesProcessed = %d", e.TreesProcessed())
	}
	// Total patterns: trees of sizes 4, 3, 3 with k=3.
	// T1 (A with 3 leaf children): subsets of children sized 1..3 = 3+3+1 = 7.
	// T2, T3 (2 leaf children): 2+1 = 3 each. Total 13.
	if e.PatternsProcessed() != 13 {
		t.Errorf("PatternsProcessed = %d, want 13", e.PatternsProcessed())
	}
	if e.Exact().Total() != 13 {
		t.Errorf("exact total = %d", e.Exact().Total())
	}
}

func TestEstimateOrderedCloseToExact(t *testing.T) {
	e := mustEngine(t, testConfig())
	figure1Stream(t, e)
	for _, q := range []*tree.Node{
		tree.T("A", tree.T("B"), tree.T("C")),
		tree.T("A", tree.T("B")),
	} {
		want := float64(e.Exact().Count(e.PatternValue(q)))
		got, err := e.EstimateOrdered(q)
		if err != nil {
			t.Fatal(err)
		}
		// Tiny stream, generous s1: expect small absolute error.
		if math.Abs(got-want) > 2.5 {
			t.Errorf("estimate of %s = %v, want ≈ %v", q, got, want)
		}
	}
}

func TestEstimateUnordered(t *testing.T) {
	e := mustEngine(t, testConfig())
	figure1Stream(t, e)
	// COUNT(A{B,C}) = ordered A(B,C) + A(C,B) = 3 + 1 = 4.
	got, err := e.EstimateUnordered(tree.T("A", tree.T("B"), tree.T("C")))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4) > 3 {
		t.Errorf("unordered estimate = %v, want ≈ 4", got)
	}
}

func TestEstimateOrderedSetValidation(t *testing.T) {
	e := mustEngine(t, testConfig())
	figure1Stream(t, e)
	if _, err := e.EstimateOrderedSet(nil); err == nil {
		t.Error("empty set must fail")
	}
	q := tree.T("A", tree.T("B"))
	if _, err := e.EstimateOrderedSet([]*tree.Node{q, q}); err == nil {
		t.Error("duplicate patterns must fail")
	}
}

func TestQueryValidation(t *testing.T) {
	e := mustEngine(t, testConfig())
	figure1Stream(t, e)
	if _, err := e.EstimateOrdered(nil); err == nil {
		t.Error("nil pattern must fail")
	}
	if _, err := e.EstimateOrdered(tree.T("A")); err == nil {
		t.Error("zero-edge pattern must fail")
	}
	big := tree.T("A", tree.T("B", tree.T("C", tree.T("D", tree.T("E")))))
	if _, err := e.EstimateOrdered(big); err == nil {
		t.Error("pattern beyond k must fail")
	}
	if err := e.AddTree(nil); err == nil {
		t.Error("nil tree must fail")
	}
}

func TestArrangements(t *testing.T) {
	got, err := Arrangements(tree.T("A", tree.T("B"), tree.T("C")), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("A{B,C}: %d arrangements, want 2", len(got))
	}
	// Identical siblings collapse.
	got, err = Arrangements(tree.T("A", tree.T("B"), tree.T("B")), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("A{B,B}: %d arrangements, want 1", len(got))
	}
	// Nested: A(B(X,Y), C) → 2 (inner) × 2 (outer) = 4.
	got, err = Arrangements(tree.T("A", tree.T("B", tree.T("X"), tree.T("Y")), tree.T("C")), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("nested: %d arrangements, want 4", len(got))
	}
	// Figure 4 of the paper: A{B{C}, B} has... two children B(C) and B;
	// permutations 2, inner C fixed → 2 arrangements.
	got, err = Arrangements(tree.T("A", tree.T("B", tree.T("C")), tree.T("B")), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("A{B(C),B}: %d arrangements, want 2", len(got))
	}
	if _, err := Arrangements(nil, 0); err == nil {
		t.Error("nil must fail")
	}
	// Cap: a node with 8 distinct children has 8! = 40320 arrangements.
	wide := tree.New("R")
	for i := 0; i < 8; i++ {
		wide.AddChild(tree.T(string(rune('a' + i))))
	}
	if _, err := Arrangements(wide, 100); err == nil {
		t.Error("arrangement explosion must be capped")
	}
}

// Regression: Arrangements generates multiset permutations directly.
// The old generate-n!-then-dedupe scheme hit the cap on repeated
// children long before producing its (few) distinct outputs.
func TestArrangementsMultiset(t *testing.T) {
	// 8 identical leaves: exactly 1 distinct arrangement. Pre-rewrite
	// this enumerated 8! = 40320 permutations and tripped a cap of 2.
	same := tree.New("A")
	for i := 0; i < 8; i++ {
		same.AddChild(tree.T("B"))
	}
	got, err := Arrangements(same, 2)
	if err != nil {
		t.Fatalf("8 identical children must not hit the cap: %v", err)
	}
	if len(got) != 1 {
		t.Errorf("A{B×8}: %d arrangements, want 1", len(got))
	}

	// Multiset counts: distinct sequences = n! / ∏ (multiplicity!).
	cases := []struct {
		q    *tree.Node
		want int
	}{
		// 3!/2! = 3: BBC, BCB, CBB.
		{tree.T("A", tree.T("B"), tree.T("B"), tree.T("C")), 3},
		// 4!/(2!·2!) = 6.
		{tree.T("A", tree.T("B"), tree.T("C"), tree.T("B"), tree.T("C")), 6},
		// Repeated subtrees count by unordered shape, not by pointer:
		// B(X) appears twice → 3!/2! = 3.
		{tree.T("A", tree.T("B", tree.T("X")), tree.T("B", tree.T("X")), tree.T("C")), 3},
		// Children that are equal as unordered trees group together even
		// when written in different child orders: both are B{X,Y}, and
		// each slot can take either of its 2 orderings → 2² = 4.
		{tree.T("A",
			tree.T("B", tree.T("X"), tree.T("Y")),
			tree.T("B", tree.T("Y"), tree.T("X"))), 4},
	}
	for _, c := range cases {
		got, err := Arrangements(c.q, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if len(got) != c.want {
			t.Errorf("%s: %d arrangements, want %d", c.q, len(got), c.want)
		}
		// Distinct by construction: no two outputs may serialize alike.
		seen := make(map[string]bool, len(got))
		for _, a := range got {
			s := a.String()
			if seen[s] {
				t.Errorf("%s: duplicate arrangement %s", c.q, s)
			}
			seen[s] = true
		}
	}

	// The cap still applies to genuinely distinct sequences.
	if _, err := Arrangements(tree.T("A", tree.T("B"), tree.T("B"), tree.T("C")), 2); err == nil {
		t.Error("cap of 2 with 3 distinct arrangements must fail")
	}
}

func TestEstimateExprProduct(t *testing.T) {
	cfg := testConfig()
	cfg.Independence = 6
	cfg.S1 = 300
	e := mustEngine(t, cfg)
	// Build a stream where two patterns have solid counts.
	for i := 0; i < 30; i++ {
		e.AddTree(tree.NewTree(tree.T("A", tree.T("B"), tree.T("C"))))
	}
	qb := tree.T("A", tree.T("B"))
	qc := tree.T("A", tree.T("C"))
	fb := float64(e.Exact().Count(e.PatternValue(qb)))
	fc := float64(e.Exact().Count(e.PatternValue(qc)))
	if fb != 30 || fc != 30 {
		t.Fatalf("exact counts %v, %v, want 30, 30", fb, fc)
	}
	got, err := e.EstimateExpr(ExprMul{L: CountOf{qb}, R: CountOf{qc}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-900) > 450 {
		t.Errorf("product estimate = %v, want ≈ 900", got)
	}
	// Sum expression close to 60.
	got, err = e.EstimateExpr(ExprAdd{L: CountOf{qb}, R: CountOf{qc}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-60) > 20 {
		t.Errorf("sum estimate = %v, want ≈ 60", got)
	}
}

func TestEstimateExprIndependenceGuard(t *testing.T) {
	e := mustEngine(t, testConfig()) // 4-wise
	figure1Stream(t, e)
	q1, q2, q3 := tree.T("A", tree.T("B")), tree.T("A", tree.T("C")), tree.T("A", tree.T("B"), tree.T("C"))
	// Degree-3 product needs 6-wise.
	expr := ExprMul{L: ExprMul{L: CountOf{q1}, R: CountOf{q2}}, R: CountOf{q3}}
	if _, err := e.EstimateExpr(expr); err == nil {
		t.Error("degree-3 product on a 4-wise engine must fail")
	}
	if _, err := e.EstimateExpr(nil); err == nil {
		t.Error("nil expression must fail")
	}
	if _, err := e.EstimateExpr(CountOf{nil}); err == nil {
		t.Error("nil pattern terminal must fail")
	}
}

func TestEstimateExtended(t *testing.T) {
	cfg := testConfig()
	cfg.BuildSummary = true
	e := mustEngine(t, cfg)
	figure1Stream(t, e)
	// //A/B via summary resolves to the plain pattern A/B (count 4).
	got, truncated, err := e.EstimateExtended(summary.Q("A", summary.Q("B")))
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Error("no truncation expected")
	}
	if math.Abs(got-4) > 2.5 {
		t.Errorf("extended estimate = %v, want ≈ 4", got)
	}
	// A/* resolves to A/B and A/C: total 4 + 3 = 7.
	got, _, err = e.EstimateExtended(summary.Q("A", summary.Q(summary.Wildcard)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-7) > 3.5 {
		t.Errorf("wildcard estimate = %v, want ≈ 7", got)
	}
	// No match.
	got, _, err = e.EstimateExtended(summary.Q("Z", summary.Q("B")))
	if err != nil || got != 0 {
		t.Errorf("absent label: got %v, %v", got, err)
	}
	// Summary disabled.
	e2 := mustEngine(t, testConfig())
	if _, _, err := e2.EstimateExtended(summary.Q("A", summary.Q("B"))); err == nil {
		t.Error("extended query without summary must fail")
	}
}

func TestTopKImprovesSkewedEstimates(t *testing.T) {
	// A heavily skewed stream: one pattern dominates. With top-k the
	// dominant pattern is deleted from the sketches and rare patterns
	// estimate much better.
	base := testConfig()
	base.S1 = 25
	base.VirtualStreams = 1 // force everything into one stream to stress SJ
	withTop := base
	withTop.TopK = 4

	eN := mustEngine(t, base)
	eT := mustEngine(t, withTop)
	heavy := tree.NewTree(tree.T("A", tree.T("B")))
	for i := 0; i < 500; i++ {
		eN.AddTree(heavy)
		eT.AddTree(heavy)
	}
	rare := tree.NewTree(tree.T("X", tree.T("Y", tree.T("Z"))))
	for i := 0; i < 10; i++ {
		eN.AddTree(rare)
		eT.AddTree(rare)
	}
	q := tree.T("X", tree.T("Y")) // exact count 10
	want := float64(eT.Exact().Count(eT.PatternValue(q)))
	if want != 10 {
		t.Fatalf("exact = %v", want)
	}
	got, err := eT.EstimateOrdered(q)
	if err != nil {
		t.Fatal(err)
	}
	// With the heavy hitter deleted, the residual stream is tiny, so
	// the estimate should be sharp.
	if math.Abs(got-10) > 5 {
		t.Errorf("top-k estimate = %v, want ≈ 10", got)
	}
	// The heavy pattern itself must also answer well (compensated).
	qh := tree.T("A", tree.T("B"))
	gotH, err := eT.EstimateOrdered(qh)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotH-500) > 50 {
		t.Errorf("tracked heavy estimate = %v, want ≈ 500", gotH)
	}
}

func TestTopKProbabilisticSampling(t *testing.T) {
	cfg := testConfig()
	cfg.TopK = 5
	cfg.TopKProbability = 0.5
	e := mustEngine(t, cfg)
	for i := 0; i < 50; i++ {
		e.AddTree(tree.NewTree(tree.T("A", tree.T("B"))))
	}
	// Sampling halves top-k invocations but the estimates must remain
	// sane (compensation still applies to whatever was tracked).
	got, err := e.EstimateOrdered(tree.T("A", tree.T("B")))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-50) > 10 {
		t.Errorf("estimate under sampling = %v, want ≈ 50", got)
	}
}

func TestMemoryAccounting(t *testing.T) {
	cfg := testConfig()
	cfg.TopK = 10
	e := mustEngine(t, cfg)
	figure1Stream(t, e)
	m := e.MemoryBytes()
	if m.SketchCounters != cfg.VirtualStreams*cfg.S1*cfg.S2*8 {
		t.Errorf("SketchCounters = %d", m.SketchCounters)
	}
	if m.Seeds <= 0 {
		t.Error("Seeds must be positive")
	}
	if m.Total() != m.SketchCounters+m.Seeds+m.TopK {
		t.Error("Total mismatch")
	}
	// Doubling s1 doubles counters and seeds.
	cfg2 := cfg
	cfg2.S1 *= 2
	e2 := mustEngine(t, cfg2)
	m2 := e2.MemoryBytes()
	if m2.SketchCounters != 2*m.SketchCounters {
		t.Error("counter memory must scale with s1")
	}
}

func TestSanityBound(t *testing.T) {
	if got := SanityBound(5, 100); got != 5 {
		t.Errorf("positive approx must pass through: %v", got)
	}
	if got := SanityBound(-3, 100); got != 10 {
		t.Errorf("negative approx = %v, want 0.1×actual = 10", got)
	}
	if got := SanityBound(-3, 0); got != 0 {
		t.Errorf("negative approx with unknown actual = %v, want 0", got)
	}
}

func TestPatternValueDeterministicAndDiscriminating(t *testing.T) {
	e := mustEngine(t, testConfig())
	a := tree.T("A", tree.T("B"), tree.T("C"))
	b := tree.T("A", tree.T("C"), tree.T("B"))
	if e.PatternValue(a) != e.PatternValue(a.Clone()) {
		t.Error("equal patterns must map to equal values")
	}
	if e.PatternValue(a) == e.PatternValue(b) {
		t.Error("different child orders must map to different values")
	}
	// Engines with different seeds use different fingerprint moduli.
	cfg2 := testConfig()
	cfg2.Seed = 999
	e2 := mustEngine(t, cfg2)
	if e.PatternValue(a) == e2.PatternValue(a) {
		t.Log("note: two seeds produced the same fingerprint (possible but unlikely)")
	}
}

func TestConfigAccessor(t *testing.T) {
	cfg := testConfig()
	e := mustEngine(t, cfg)
	got := e.Config()
	if got.S1 != cfg.S1 || got.MaxPatternEdges != cfg.MaxPatternEdges {
		t.Error("Config accessor wrong")
	}
	// normalize fills defaults.
	if got.TopKProbability != 1 || got.Independence != 4 {
		t.Errorf("normalized defaults missing: %+v", got)
	}
}

func TestMapperMatchesEngine(t *testing.T) {
	cfg := testConfig()
	e := mustEngine(t, cfg)
	m, err := NewMapper(cfg.FingerprintDegree, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*tree.Node{
		tree.T("A", tree.T("B")),
		tree.T("A", tree.T("B"), tree.T("C")),
		tree.T("S", tree.T("NP", tree.T("DT"))),
	} {
		if e.PatternValue(q) != m.PatternValue(q) {
			t.Errorf("mapper disagrees with engine on %s", q)
		}
	}
	if _, err := NewMapper(3, 1); err == nil {
		t.Error("bad degree must fail")
	}
}

func TestMappingIndependentOfSketchDimensions(t *testing.T) {
	a := testConfig()
	b := testConfig()
	b.S1 = 7
	b.S2 = 3
	b.TopK = 5
	ea, eb := mustEngine(t, a), mustEngine(t, b)
	q := tree.T("A", tree.T("B"), tree.T("C"))
	if ea.PatternValue(q) != eb.PatternValue(q) {
		t.Error("pattern mapping must depend only on Seed and FingerprintDegree")
	}
}

func TestObserver(t *testing.T) {
	e := mustEngine(t, testConfig())
	var values []uint64
	var sizes []int
	e.SetObserver(func(v uint64, p *enum.Pattern) {
		values = append(values, v)
		sizes = append(sizes, p.Edges())
	})
	figure1Stream(t, e)
	if int64(len(values)) != e.PatternsProcessed() {
		t.Errorf("observer saw %d patterns, engine processed %d", len(values), e.PatternsProcessed())
	}
	for _, s := range sizes {
		if s < 1 || s > e.Config().MaxPatternEdges {
			t.Errorf("observer pattern size %d out of range", s)
		}
	}
}

func TestCompileErrorPropagation(t *testing.T) {
	e := mustEngine(t, testConfig())
	figure1Stream(t, e)
	ok := CountOf{tree.T("A", tree.T("B"))}
	bad := CountOf{tree.T("A")} // zero edges
	for _, expr := range []Expr{
		ExprAdd{L: bad, R: ok},
		ExprAdd{L: ok, R: bad},
		ExprSub{L: bad, R: ok},
		ExprSub{L: ok, R: bad},
		ExprMul{L: bad, R: ok},
		ExprMul{L: ok, R: bad},
	} {
		if _, err := e.EstimateExpr(expr); err == nil {
			t.Errorf("invalid terminal must propagate: %T", expr)
		}
	}
	// Subtraction expression end-to-end.
	got, err := e.EstimateExpr(ExprSub{L: ok, R: CountOf{tree.T("A", tree.T("C"))}})
	if err != nil {
		t.Fatal(err)
	}
	// Exact: 4 - 3 = 1.
	if math.Abs(got-1) > 3 {
		t.Errorf("difference = %v, want ≈ 1", got)
	}
}

func TestEstimateUnorderedArrangementExplosion(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPatternEdges = 10
	e := mustEngine(t, cfg)
	e.AddTree(tree.NewTree(tree.T("A", tree.T("B"))))
	wide := tree.New("R")
	for i := 0; i < 9; i++ {
		wide.AddChild(tree.T(string(rune('a' + i))))
	}
	// 9! = 362880 arrangements exceeds the cap.
	if _, err := e.EstimateUnordered(wide); err == nil {
		t.Error("arrangement explosion must be reported")
	}
}

// A batch prepared under another engine's mapping is refused whole:
// its sign bits mean nothing for these counters. Clones share their
// source's mapping and accept it; an engine built separately, even
// from the same configuration, owns its own seed objects and refuses.
func TestApplyPreparedRefusesForeignMapping(t *testing.T) {
	cfg := testConfig()
	cfg.TopK = 0
	a := mustEngine(t, cfg)
	tr := tree.NewTree(tree.T("A", tree.T("B", tree.T("C")), tree.T("D")))
	var p Prepared
	if err := a.ApplyPrepared(&p); err == nil {
		t.Fatal("an empty Prepared must be refused")
	}
	if err := a.PrepareTree(tr, &p); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 2
	for name, e := range map[string]*Engine{"seed 2": mustEngine(t, other), "same config": mustEngine(t, cfg)} {
		before, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ApplyPrepared(&p); !errors.Is(err, errForeignMapping) {
			t.Fatalf("%s: ApplyPrepared = %v, want the foreign-mapping refusal", name, err)
		}
		after, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) || e.TreesProcessed() != 0 || e.PatternsProcessed() != 0 {
			t.Fatalf("%s: a refused batch changed the synopsis", name)
		}
	}
	c, err := a.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyPrepared(&p); err != nil {
		t.Fatalf("clone refused its source's batch: %v", err)
	}
	if err := a.AddTree(tr); err != nil {
		t.Fatal(err)
	}
	want, _ := a.MarshalBinary()
	if got, _ := c.MarshalBinary(); !bytes.Equal(got, want) {
		t.Fatal("applying a prepared tree to a clone differs from AddTree on the source")
	}
}
