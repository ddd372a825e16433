package ams

import (
	"math"
	"math/rand/v2"
	"testing"

	"sketchtree/internal/gf2"
	"sketchtree/internal/xi"
)

var field63 = gf2.MustField(1<<63 | 1<<1 | 1)

func bchSeeds(t testing.TB, s1, s2 int, seed uint64) *Seeds {
	t.Helper()
	se, err := NewSeeds(xi.NewBCHFamily(field63), s1, s2, rand.New(rand.NewPCG(seed, 17)))
	if err != nil {
		t.Fatal(err)
	}
	return se
}

func polySeeds(t testing.TB, k, s1, s2 int, seed uint64) *Seeds {
	t.Helper()
	fam, err := xi.NewPolyFamily(field63, k)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewSeeds(fam, s1, s2, rand.New(rand.NewPCG(seed, 19)))
	if err != nil {
		t.Fatal(err)
	}
	return se
}

func TestNewSeedsValidation(t *testing.T) {
	fam := xi.NewBCHFamily(field63)
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := NewSeeds(fam, 0, 5, rng); err == nil {
		t.Error("s1=0 must be rejected")
	}
	if _, err := NewSeeds(fam, 5, 0, rng); err == nil {
		t.Error("s2=0 must be rejected")
	}
	se, err := NewSeeds(fam, 3, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if se.S1() != 3 || se.S2() != 4 || se.Cells() != 12 || se.Family() != fam {
		t.Error("seed accessors wrong")
	}
	if se.MemoryBytes() != 12*24 {
		t.Errorf("MemoryBytes = %d, want %d", se.MemoryBytes(), 12*24)
	}
}

// With a single distinct value in the stream, ξ_v·X = f_v exactly in
// every cell, so the estimate is exact regardless of s1/s2.
func TestEstimateExactForSingleValue(t *testing.T) {
	se := bchSeeds(t, 3, 3, 2)
	s := se.NewSketch()
	const v, m = uint64(0xabcde), int64(37)
	s.Update(v, m)
	if got := s.EstimateCount(v, nil); got != float64(m) {
		t.Errorf("EstimateCount = %v, want %d exactly", got, m)
	}
	// A value never seen over a single-value stream: ξ_q·X = ±m·ξqξv;
	// just confirm magnitude.
	if got := s.EstimateCount(0x9999, nil); math.Abs(got) > float64(m) {
		t.Errorf("absent value estimate magnitude %v > %d", got, m)
	}
}

func TestDeletionInvertsInsertion(t *testing.T) {
	se := bchSeeds(t, 5, 7, 3)
	s := se.NewSketch()
	s.Update(111, 5)
	s.Update(222, 3)
	s.Update(111, -5)
	s.Update(222, -3)
	if !s.IsZero() {
		t.Error("sketch must return to zero after exact deletions")
	}
}

func TestUpdatePreparedMatchesUpdate(t *testing.T) {
	se := bchSeeds(t, 4, 4, 4)
	a, b := se.NewSketch(), se.NewSketch()
	p := se.Prepare(777, nil)
	a.Update(777, 9)
	b.UpdatePrepared(p, 9)
	for c := 0; c < se.Cells(); c++ {
		if a.Counter(c) != b.Counter(c) {
			t.Fatal("prepared update disagrees with direct update")
		}
	}
}

func TestAddSketchSharedSeeds(t *testing.T) {
	se := bchSeeds(t, 4, 4, 5)
	a, b, u := se.NewSketch(), se.NewSketch(), se.NewSketch()
	a.Update(1, 3)
	a.Update(2, 1)
	b.Update(2, 4)
	b.Update(3, 2)
	u.Update(1, 3)
	u.Update(2, 5)
	u.Update(3, 2)
	if err := a.AddSketch(b); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < se.Cells(); c++ {
		if a.Counter(c) != u.Counter(c) {
			t.Fatal("sum of sketches must equal sketch of union")
		}
	}
}

func TestAddSketchDifferentSeedsRejected(t *testing.T) {
	a := bchSeeds(t, 2, 2, 6).NewSketch()
	b := bchSeeds(t, 2, 2, 7).NewSketch()
	if err := a.AddSketch(b); err == nil {
		t.Error("adding sketches with different seeds must fail")
	}
}

func TestClone(t *testing.T) {
	se := bchSeeds(t, 2, 2, 8)
	s := se.NewSketch()
	s.Update(5, 10)
	c := s.Clone()
	c.Update(5, -10)
	if !c.IsZero() {
		t.Error("clone must carry the counters")
	}
	if s.IsZero() {
		t.Error("mutating the clone must not affect the original")
	}
	if s.Seeds() != c.Seeds() {
		t.Error("clone must share seeds")
	}
	if s.MemoryBytes() != 8*se.Cells() {
		t.Errorf("MemoryBytes = %d", s.MemoryBytes())
	}
}

// Empirical unbiasedness of the count estimator: over many independent
// seed draws, the mean of the atomic estimate converges to the true
// frequency (Equation 1).
func TestEstimateCountUnbiased(t *testing.T) {
	rng := rand.New(rand.NewPCG(100, 200))
	fam := xi.NewBCHFamily(field63)
	const trials = 4000
	sum := 0.0
	for i := 0; i < trials; i++ {
		se, err := NewSeeds(fam, 1, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		s := se.NewSketch()
		s.Update(10, 3)
		s.Update(20, 2)
		s.Update(30, 7)
		sum += s.EstimateCount(10, nil)
	}
	mean := sum / trials
	// Var(ξq·X) <= SJ = 9+4+49 = 62; σ of the mean ≈ sqrt(62/4000) ≈ 0.12.
	if math.Abs(mean-3) > 0.7 {
		t.Errorf("mean estimate %v, want ≈ 3", mean)
	}
}

// Empirical unbiasedness of the set estimator (Equation 6).
func TestEstimateSetCountUnbiased(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 201))
	fam := xi.NewBCHFamily(field63)
	const trials = 4000
	sum := 0.0
	for i := 0; i < trials; i++ {
		se, err := NewSeeds(fam, 1, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		s := se.NewSketch()
		s.Update(10, 3)
		s.Update(20, 2)
		s.Update(30, 7)
		sum += s.EstimateSetCount([]uint64{10, 30}, nil)
	}
	mean := sum / trials
	if math.Abs(mean-10) > 1.2 {
		t.Errorf("mean set estimate %v, want ≈ 10", mean)
	}
}

// Boosting: with generous s1 and s2 a single sketch should land close
// to the true count on a moderately skewed stream.
func TestEstimateCountBoosted(t *testing.T) {
	se := bchSeeds(t, 400, 7, 9)
	s := se.NewSketch()
	// f(v) = 101-v for v in 1..100: SJ ≈ 338k, f(1)=100.
	for v := uint64(1); v <= 100; v++ {
		s.Update(v, int64(101-v))
	}
	got := s.EstimateCount(1, nil)
	if math.Abs(got-100) > 25 {
		t.Errorf("boosted estimate %v, want 100 ± 25", got)
	}
}

func TestEstimateF2(t *testing.T) {
	se := bchSeeds(t, 600, 7, 10)
	s := se.NewSketch()
	s.Update(1, 3)
	s.Update(2, 4)
	// F2 = 25; X² per cell = 25 ± 24, averaging 600 cells tightens.
	got := s.EstimateF2(nil)
	if math.Abs(got-25) > 6 {
		t.Errorf("F2 estimate %v, want 25 ± 6", got)
	}
}

func TestAdjustRestoresDeletedValue(t *testing.T) {
	se := bchSeeds(t, 4, 3, 11)
	s := se.NewSketch()
	s.Update(42, 9)
	// Delete it (as top-k would), then estimate with the compensation
	// vector d_c = ξ_42(c)·9: must recover 9 exactly (single value).
	s.Update(42, -9)
	adj := make([]int64, se.Cells())
	p := se.Prepare(42, nil)
	for c := range adj {
		adj[c] = int64(se.Xi(c, p)) * 9
	}
	if got := s.EstimateCount(42, adj); got != 9 {
		t.Errorf("adjusted estimate %v, want exactly 9", got)
	}
	if got := s.EstimateCount(42, nil); got != 0 {
		t.Errorf("unadjusted estimate %v, want 0", got)
	}
}

func TestMedianOfMeansAgainstManual(t *testing.T) {
	se := bchSeeds(t, 2, 3, 12)
	s := se.NewSketch()
	s.Update(7, 5)
	s.Update(8, 2)
	p := se.Prepare(7, nil)
	rows := make([]float64, 0, 3)
	for i := 0; i < 3; i++ {
		sum := 0.0
		for j := 0; j < 2; j++ {
			c := i*2 + j
			sum += float64(int64(se.Xi(c, p)) * s.Counter(c))
		}
		rows = append(rows, sum/2)
	}
	// median of 3
	a, b, c := rows[0], rows[1], rows[2]
	want := math.Max(math.Min(a, b), math.Min(math.Max(a, b), c))
	if got := s.EstimateCount(7, nil); got != want {
		t.Errorf("EstimateCount = %v, manual median-of-means = %v", got, want)
	}
}

func TestMedianEvenRows(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median([]float64{5}); got != 5 {
		t.Errorf("median of singleton = %v", got)
	}
}

func TestTheoremHelpers(t *testing.T) {
	// Theorem 1: s1 = 8·SJ/(ε²f²).
	if got := Theorem1S1(1000, 10, 0.1); got != 8000 {
		t.Errorf("Theorem1S1 = %d, want 8000", got)
	}
	if got := Theorem1S1(1000, 0, 0.1); got != math.MaxInt32 {
		t.Error("zero frequency must be sentinel")
	}
	if got := Theorem1S1(1000, 10, 0); got != math.MaxInt32 {
		t.Error("zero epsilon must be sentinel")
	}
	// Theorem 2: s1 = 16·(t-1)·SJ/(ε²·fsum²).
	if got := Theorem2S1(1000, 3, 20, 0.1); got != 8000 {
		t.Errorf("Theorem2S1 = %d, want 8000", got)
	}
	if got := Theorem2S1(1000, 1, 10, 0.1); got != Theorem1S1(1000, 10, 0.1) {
		t.Error("t=1 must fall back to Theorem 1")
	}
	if got := Theorem2S1(1000, 0, 10, 0.1); got != math.MaxInt32 {
		t.Error("t=0 must be sentinel")
	}
	// The paper's experiments use δ=0.1 and s2=7.
	if got := S2ForConfidence(0.1); got != 7 {
		t.Errorf("S2ForConfidence(0.1) = %d, want 7 (paper footnote 3)", got)
	}
	if got := S2ForConfidence(0.5); got != 2 {
		t.Errorf("S2ForConfidence(0.5) = %d, want 2", got)
	}
	if got := S2ForConfidence(0); got != 1 {
		t.Error("invalid delta must clamp to 1")
	}
	if got := S2ForConfidence(1); got != 1 {
		t.Error("invalid delta must clamp to 1")
	}
}

func BenchmarkUpdatePrepared175Cells(b *testing.B) {
	// The paper's typical configuration: s1=25, s2=7.
	se := bchSeeds(b, 25, 7, 42)
	s := se.NewSketch()
	p := se.Prepare(0xdeadbeef, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.UpdatePrepared(p, 1)
	}
}

func BenchmarkEstimateCount(b *testing.B) {
	se := bchSeeds(b, 25, 7, 43)
	s := se.NewSketch()
	for v := uint64(0); v < 100; v++ {
		s.Update(v, int64(v%10)+1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF = s.EstimateCount(50, nil)
	}
}

var sinkF float64

func TestSeedsWordsRoundTrip(t *testing.T) {
	se := bchSeeds(t, 3, 2, 81)
	re, err := SeedsFromWords(se.Family(), 3, 2, se.Words())
	if err != nil {
		t.Fatal(err)
	}
	p := se.Prepare(12345, nil)
	for c := 0; c < se.Cells(); c++ {
		if se.Xi(c, p) != re.Xi(c, p) {
			t.Fatal("restored seeds disagree")
		}
	}
	if _, err := SeedsFromWords(se.Family(), 3, 3, se.Words()); err == nil {
		t.Error("cell count mismatch must fail")
	}
	if _, err := SeedsFromWords(se.Family(), 0, 2, nil); err == nil {
		t.Error("invalid dimensions must fail")
	}
	bad := se.Words()
	bad[0] = bad[0][:1]
	if _, err := SeedsFromWords(se.Family(), 3, 2, bad); err == nil {
		t.Error("short seed record must fail")
	}
}

func TestSketchCountersRoundTrip(t *testing.T) {
	se := bchSeeds(t, 3, 2, 82)
	s := se.NewSketch()
	s.Update(7, 5)
	s.Update(9, 2)
	r, err := se.SketchFromCounters(s.Counters())
	if err != nil {
		t.Fatal(err)
	}
	if r.EstimateCount(7, nil) != s.EstimateCount(7, nil) {
		t.Error("restored sketch estimates differ")
	}
	// Counters is a copy.
	c := s.Counters()
	c[0] = 999
	if s.Counter(0) == 999 && s.Counter(0) != c[0]-0 {
		t.Error("Counters must copy")
	}
	if _, err := se.SketchFromCounters([]int64{1}); err == nil {
		t.Error("wrong counter length must fail")
	}
}

func TestVarianceBounds(t *testing.T) {
	if got := VarBoundSingle(100); got != 100 {
		t.Errorf("VarBoundSingle = %v", got)
	}
	if got := VarBoundSet(1, 100); got != 100 {
		t.Errorf("VarBoundSet(1) must reduce to single: %v", got)
	}
	if got := VarBoundSet(4, 100); got != 600 {
		t.Errorf("VarBoundSet(4, 100) = %v, want 600", got)
	}
	if got := VarBoundProduct(2, 10); got != 125 {
		t.Errorf("VarBoundProduct(2, 10) = %v, want (1+4)/4*100 = 125", got)
	}
}

func TestSeedsEqual(t *testing.T) {
	a := bchSeeds(t, 3, 2, 90)
	b := bchSeeds(t, 3, 2, 90) // same PCG seed → same words
	c := bchSeeds(t, 3, 2, 91)
	d := bchSeeds(t, 2, 3, 90)
	if !a.Equal(a) || !a.Equal(b) {
		t.Error("equal seeds not recognized")
	}
	if a.Equal(c) {
		t.Error("different words must not be equal")
	}
	if a.Equal(d) {
		t.Error("different dimensions must not be equal")
	}
	if a.Equal(nil) {
		t.Error("nil must not be equal")
	}
	p := polySeeds(t, 6, 3, 2, 90)
	if a.Equal(p) {
		t.Error("different families must not be equal")
	}
	// AddSketch across equal-content seeds works.
	s1 := a.NewSketch()
	s2 := b.NewSketch()
	s2.Update(5, 3)
	if err := s1.AddSketch(s2); err != nil {
		t.Fatalf("equal-content add: %v", err)
	}
	if got := s1.EstimateCount(5, nil); got != 3 {
		t.Errorf("added estimate = %v, want 3", got)
	}
}

func BenchmarkEstimateSetCount3(b *testing.B) {
	se := bchSeeds(b, 25, 7, 44)
	s := se.NewSketch()
	for v := uint64(0); v < 200; v++ {
		s.Update(v, int64(v%10)+1)
	}
	vs := []uint64{10, 20, 30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF = s.EstimateSetCount(vs, nil)
	}
}

func BenchmarkEstimateExprProduct(b *testing.B) {
	se := polySeeds(b, 6, 25, 7, 45)
	s := se.NewSketch()
	for v := uint64(0); v < 200; v++ {
		s.Update(v, int64(v%10)+1)
	}
	e := Mul{L: Count{10}, R: Count{20}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := s.EstimateExpr(e, nil)
		if err != nil {
			b.Fatal(err)
		}
		sinkF = v
	}
}

func BenchmarkEstimateF2(b *testing.B) {
	se := bchSeeds(b, 25, 7, 46)
	s := se.NewSketch()
	for v := uint64(0); v < 200; v++ {
		s.Update(v, int64(v%10)+1)
	}
	for i := 0; i < b.N; i++ {
		sinkF = s.EstimateF2(nil)
	}
}

// Estimator must be a pure reorganization of EstimateCount: the shift
// of a tracked value's row sums equals the per-cell adjustment
// ξ_v·shift, with the same float results, for both ξ families.
func TestEstimatorMatchesEstimateCount(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 34))
	field := gf2.MustField(gf2.DefaultModulus(63))
	poly, err := xi.NewPolyFamily(field, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []*xi.Family{xi.NewBCHFamily(field), poly} {
		seeds, err := NewSeeds(fam, 25, 7, rng)
		if err != nil {
			t.Fatal(err)
		}
		sk := seeds.NewSketch()
		vals := make([]uint64, 200)
		for i := range vals {
			vals[i] = rng.Uint64()
			sk.Update(vals[i], int64(rng.IntN(9)+1))
		}
		es := seeds.NewEstimator()
		for _, v := range vals[:50] {
			for _, shift := range []int64{0, int64(rng.IntN(40) + 1)} {
				want := sk.EstimateCount(v, shiftAdjust(seeds, v, shift))
				if got := es.Count(sk, v, shift); got != want {
					t.Fatalf("kind %v: Count(%#x, %d) = %v, EstimateCount %v", fam.Kind(), v, shift, got, want)
				}
			}
		}
	}
}

// shiftAdjust is the per-cell adjustment ξ_v(c)·shift that adds shift
// instances of v back for estimation, or nil for shift 0.
func shiftAdjust(seeds *Seeds, v uint64, shift int64) []int64 {
	if shift == 0 {
		return nil
	}
	p := seeds.Prepare(v, nil)
	adj := make([]int64, seeds.Cells())
	for c := range adj {
		adj[c] = int64(seeds.Xi(c, p)) * shift
	}
	return adj
}

// refUpdate adds delta·ξ_c(p) to every cell through the per-generator
// reference Xi, independently of the sign-word kernels.
func refUpdate(s *Sketch, p *xi.Prep, delta int64) {
	for c := range s.x {
		s.x[c] += int64(s.seeds.Xi(c, p)) * delta
	}
}

// The fused arrival must leave the counters the per-generator update
// leaves, and its recorded pass must answer and write like the
// step-by-step operations it replaces: Estimate(f) as EstimateCount
// after adding f instances back, AddPass as a fresh update.
func TestPassMatchesStepwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 13))
	field := gf2.MustField(gf2.DefaultModulus(63))
	poly, err := xi.NewPolyFamily(field, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []*xi.Family{xi.NewBCHFamily(field), poly} {
		seeds, err := NewSeeds(fam, 25, 7, rng)
		if err != nil {
			t.Fatal(err)
		}
		fused, plain := seeds.NewSketch(), seeds.NewSketch()
		ps := seeds.NewPass()
		p := &xi.Prep{}
		signs := make([]uint64, seeds.Batch().SignWords())
		for i := 0; i < 300; i++ {
			v := uint64(rng.IntN(40))
			delta := int64(rng.IntN(5) + 1)
			seeds.Prepare(v, p)
			seeds.Batch().Signs(p, signs)
			fused.UpdatePass(signs, delta, ps)
			refUpdate(plain, p, delta)
			f := int64(rng.IntN(30))
			if got, want := ps.Estimate(f), plain.EstimateCount(v, shiftAdjust(seeds, v, f)); got != want {
				t.Fatalf("kind %v step %d: Estimate(%d) = %v, want %v", fam.Kind(), i, f, got, want)
			}
			back := int64(rng.IntN(7) - 3)
			fused.AddPass(ps, back)
			refUpdate(plain, p, back)
			for c := 0; c < seeds.Cells(); c++ {
				if fused.Counter(c) != plain.Counter(c) {
					t.Fatalf("kind %v step %d cell %d: fused %d, plain %d", fam.Kind(), i, c, fused.Counter(c), plain.Counter(c))
				}
			}
		}
	}
}

func TestEstimatorZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 89))
	fam := xi.NewBCHFamily(gf2.MustField(gf2.DefaultModulus(63)))
	seeds, err := NewSeeds(fam, 25, 7, rng)
	if err != nil {
		t.Fatal(err)
	}
	sk := seeds.NewSketch()
	sk.Update(42, 3)
	es := seeds.NewEstimator()
	es.Count(sk, 42, 0) // warm the Prep
	if n := testing.AllocsPerRun(100, func() { es.Count(sk, 42, 5) }); n != 0 {
		t.Errorf("Estimator.Count allocates %v per run, want 0", n)
	}
}

func TestMedianInPlaceMatchesMedian(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 4))
	for n := 1; n <= 9; n++ {
		for trial := 0; trial < 200; trial++ {
			a := make([]float64, n)
			for i := range a {
				a[i] = float64(rng.IntN(20) - 10)
			}
			b := append([]float64(nil), a...)
			if got, want := medianInPlace(a), median(b); got != want {
				t.Fatalf("n=%d: medianInPlace %v, median %v", n, got, want)
			}
		}
	}
}
