package xi

import (
	"math/rand/v2"
	"testing"

	"sketchtree/internal/gf2"
)

var field4 = gf2.MustField(0b10011) // GF(16), x^4 + x + 1
var field63 = gf2.MustField(1<<63 | 1<<1 | 1)

func TestFamilyAccessors(t *testing.T) {
	b := NewBCHFamily(field63)
	if b.Independence() != 4 || b.Kind() != BCH || b.Field() != field63 {
		t.Error("BCH family accessors wrong")
	}
	p, err := NewPolyFamily(field63, 6)
	if err != nil {
		t.Fatal(err)
	}
	if p.Independence() != 6 || p.Kind() != Poly {
		t.Error("Poly family accessors wrong")
	}
}

func TestNewPolyFamilyValidation(t *testing.T) {
	if _, err := NewPolyFamily(field63, 1); err == nil {
		t.Error("k=1 must be rejected")
	}
	if _, err := NewPolyFamily(gf2.MustField(0b111), 10); err == nil {
		t.Error("k exceeding a tiny field must be rejected")
	}
}

func TestXiIsPlusMinusOne(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, fam := range testFamilies(t) {
		g := fam.NewGenerator(rng)
		for v := uint64(0); v < 200; v++ {
			x := g.XiValue(v)
			if x != 1 && x != -1 {
				t.Fatalf("Xi = %d", x)
			}
			if x*x != 1 {
				t.Fatalf("Xi^2 = %d", x*x)
			}
		}
	}
}

func testFamilies(t *testing.T) []*Family {
	t.Helper()
	poly, err := NewPolyFamily(field63, 6)
	if err != nil {
		t.Fatal(err)
	}
	return []*Family{NewBCHFamily(field63), poly}
}

func TestXiDeterministicPerSeed(t *testing.T) {
	for _, fam := range testFamilies(t) {
		g := fam.NewGenerator(rand.New(rand.NewPCG(5, 6)))
		h := fam.NewGenerator(rand.New(rand.NewPCG(5, 6)))
		for v := uint64(0); v < 100; v++ {
			if g.XiValue(v) != h.XiValue(v) {
				t.Fatal("same seed must give same xi")
			}
		}
	}
}

func TestPrepareReuse(t *testing.T) {
	for _, fam := range testFamilies(t) {
		g := fam.NewGenerator(rand.New(rand.NewPCG(9, 1)))
		p := &Prep{}
		for v := uint64(0); v < 100; v++ {
			fam.Prepare(v, p)
			if g.Xi(p) != g.XiValue(v) {
				t.Fatalf("reused prep disagrees at v=%d", v)
			}
		}
	}
}

func TestPrepareNilAllocates(t *testing.T) {
	fam := NewBCHFamily(field63)
	p := fam.Prepare(42, nil)
	if p == nil || len(p.words) != 2 {
		t.Fatal("Prepare(nil) must allocate a 2-word prep for BCH")
	}
}

// Exhaustive exactness: over GF(16), enumerating every BCH seed, the
// sign pattern of (ξ_a, ξ_b, ξ_c, ξ_d) for distinct values must be
// exactly uniform over the 16 patterns — four-wise independence is a
// property of the construction, not an approximation.
func TestBCHExactFourWiseIndependence(t *testing.T) {
	fam := NewBCHFamily(field4)
	values := [][]uint64{
		{0, 1, 7, 9},
		{1, 2, 3, 4},
		{5, 10, 11, 15},
		{0, 3, 5, 6}, // 3^3=..., includes a dependent-looking set
	}
	for _, vs := range values {
		preps := make([]*Prep, 4)
		for i, v := range vs {
			preps[i] = fam.Prepare(v, nil)
		}
		counts := make(map[int]int)
		for sign := uint64(0); sign < 2; sign++ {
			for s1 := uint64(0); s1 < 16; s1++ {
				for s2 := uint64(0); s2 < 16; s2++ {
					g := &Generator{fam: fam, sign: sign, seed: []uint64{s1, s2}}
					pat := 0
					for i := range preps {
						pat <<= 1
						if g.Xi(preps[i]) == 1 {
							pat |= 1
						}
					}
					counts[pat]++
				}
			}
		}
		total := 2 * 16 * 16
		for pat := 0; pat < 16; pat++ {
			if counts[pat] != total/16 {
				t.Errorf("values %v: pattern %04b occurs %d times, want %d",
					vs, pat, counts[pat], total/16)
			}
		}
	}
}

// Exhaustive exactness for the polynomial construction: over GF(16)
// with k=3 coefficients, (ξ_a, ξ_b, ξ_c) for distinct values must be
// exactly uniform over the 8 patterns.
func TestPolyExactThreeWiseIndependence(t *testing.T) {
	fam, err := NewPolyFamily(field4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, vs := range [][]uint64{{0, 1, 2}, {3, 7, 12}, {1, 14, 15}} {
		preps := make([]*Prep, 3)
		for i, v := range vs {
			preps[i] = fam.Prepare(v, nil)
		}
		counts := make(map[int]int)
		for c0 := uint64(0); c0 < 16; c0++ {
			for c1 := uint64(0); c1 < 16; c1++ {
				for c2 := uint64(0); c2 < 16; c2++ {
					g := &Generator{fam: fam, seed: []uint64{c0, c1, c2}}
					pat := 0
					for i := range preps {
						pat <<= 1
						if g.Xi(preps[i]) == 1 {
							pat |= 1
						}
					}
					counts[pat]++
				}
			}
		}
		total := 16 * 16 * 16
		for pat := 0; pat < 8; pat++ {
			if counts[pat] != total/8 {
				t.Errorf("values %v: pattern %03b occurs %d times, want %d",
					vs, pat, counts[pat], total/8)
			}
		}
	}
}

// The prepared-mask fast path must agree with a direct polynomial
// evaluation in the field.
func TestPolyXiMatchesDirectEvaluation(t *testing.T) {
	fam, err := NewPolyFamily(field63, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(21, 22))
	g := fam.NewGenerator(rng)
	for i := 0; i < 200; i++ {
		v := rng.Uint64() & (1<<63 - 1)
		// Direct: bit0 of c0 + c1 v + ... + c4 v^4 via Horner.
		acc := uint64(0)
		for j := len(g.seed) - 1; j >= 0; j-- {
			acc = field63.Add(field63.Mul(acc, v), g.seed[j])
		}
		want := int8(1)
		if acc&1 != 0 {
			want = -1
		}
		if got := g.XiValue(v); got != want {
			t.Fatalf("v=%#x: Xi=%d direct=%d", v, got, want)
		}
	}
}

// Empirical unbiasedness over seeds: for a fixed value, the mean of ξ
// over many independent generators concentrates near zero.
func TestEmpiricalUnbiasedness(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	for _, fam := range testFamilies(t) {
		p := fam.Prepare(0xdeadbeef, nil)
		const n = 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += int(fam.NewGenerator(rng).Xi(p))
		}
		// Std dev of the sum is sqrt(n) ~ 141; 5 sigma ~ 710.
		if sum > 710 || sum < -710 {
			t.Errorf("kind %v: mean xi = %v, not concentrated at 0", fam.Kind(), float64(sum)/n)
		}
	}
}

// Empirical pairwise decorrelation: for distinct values, E(ξ_a ξ_b)
// over seeds concentrates near zero.
func TestEmpiricalPairwiseIndependence(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	for _, fam := range testFamilies(t) {
		pa := fam.Prepare(123456, nil)
		pb := fam.Prepare(654321, nil)
		const n = 20000
		sum := 0
		for i := 0; i < n; i++ {
			g := fam.NewGenerator(rng)
			sum += int(g.Xi(pa)) * int(g.Xi(pb))
		}
		if sum > 710 || sum < -710 {
			t.Errorf("kind %v: E(xi_a xi_b) = %v, not ~0", fam.Kind(), float64(sum)/n)
		}
	}
}

func TestDistinctValuesUsuallyDiffer(t *testing.T) {
	// A single generator must not be constant across values.
	rng := rand.New(rand.NewPCG(51, 52))
	for _, fam := range testFamilies(t) {
		g := fam.NewGenerator(rng)
		plus, minus := 0, 0
		for v := uint64(0); v < 1000; v++ {
			if g.XiValue(v) == 1 {
				plus++
			} else {
				minus++
			}
		}
		if plus < 300 || minus < 300 {
			t.Errorf("kind %v: degenerate generator (+%d/-%d)", fam.Kind(), plus, minus)
		}
	}
}

func TestSeedWordsAndMemory(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	b := NewBCHFamily(field63).NewGenerator(rng)
	if len(b.SeedWords()) != 3 || b.MemoryBytes() != 24 {
		t.Errorf("BCH seed words/mem: %v, %d", b.SeedWords(), b.MemoryBytes())
	}
	pf, _ := NewPolyFamily(field63, 6)
	p := pf.NewGenerator(rng)
	if len(p.SeedWords()) != 6 || p.MemoryBytes() != 48 {
		t.Errorf("Poly seed words/mem: %v, %d", p.SeedWords(), p.MemoryBytes())
	}
	if p.Family() != pf {
		t.Error("Family accessor wrong")
	}
}

func BenchmarkPrepareBCH(b *testing.B) {
	fam := NewBCHFamily(field63)
	p := &Prep{}
	for i := 0; i < b.N; i++ {
		fam.Prepare(uint64(i)*0x9e3779b97f4a7c15, p)
	}
}

func BenchmarkXiBCHPrepared(b *testing.B) {
	fam := NewBCHFamily(field63)
	g := fam.NewGenerator(rand.New(rand.NewPCG(1, 1)))
	p := fam.Prepare(0x123456789, nil)
	var acc int8
	for i := 0; i < b.N; i++ {
		acc += g.Xi(p)
	}
	sinkI8 = acc
}

func BenchmarkPreparePoly6(b *testing.B) {
	fam, _ := NewPolyFamily(field63, 6)
	p := &Prep{}
	for i := 0; i < b.N; i++ {
		fam.Prepare(uint64(i)*0x9e3779b97f4a7c15, p)
	}
}

func BenchmarkXiPoly6Prepared(b *testing.B) {
	fam, _ := NewPolyFamily(field63, 6)
	g := fam.NewGenerator(rand.New(rand.NewPCG(1, 1)))
	p := fam.Prepare(0x123456789, nil)
	var acc int8
	for i := 0; i < b.N; i++ {
		acc += g.Xi(p)
	}
	sinkI8 = acc
}

var sinkI8 int8

func TestGeneratorFromWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	for _, fam := range testFamilies(t) {
		g := fam.NewGenerator(rng)
		r, err := fam.GeneratorFromWords(g.SeedWords())
		if err != nil {
			t.Fatal(err)
		}
		for v := uint64(0); v < 200; v++ {
			if g.XiValue(v) != r.XiValue(v) {
				t.Fatalf("kind %v: restored generator disagrees at %d", fam.Kind(), v)
			}
		}
	}
}

func TestGeneratorFromWordsValidation(t *testing.T) {
	bch := NewBCHFamily(field63)
	if _, err := bch.GeneratorFromWords([]uint64{1, 2}); err == nil {
		t.Error("wrong word count must fail")
	}
	if _, err := bch.GeneratorFromWords([]uint64{2, 1, 1}); err == nil {
		t.Error("non-bit sign word must fail")
	}
	if _, err := bch.GeneratorFromWords([]uint64{1, ^uint64(0), 1}); err == nil {
		t.Error("word exceeding the field must fail")
	}
	if _, err := bch.GeneratorFromWords([]uint64{1, 5, 9}); err != nil {
		t.Errorf("valid words rejected: %v", err)
	}
}

// The flattened Batch must agree exactly with per-generator Xi: the
// sketch counters it produces are persisted and golden-pinned, so the
// batched path has to be bit-identical, not just statistically equal.
func TestBatchMatchesGeneratorXi(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	poly, err := NewPolyFamily(field63, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []*Family{NewBCHFamily(field63), NewBCHFamily(field4), poly} {
		gens := make([]*Generator, 37)
		for i := range gens {
			gens[i] = fam.NewGenerator(rng)
		}
		b, err := NewBatch(gens)
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() != len(gens) {
			t.Fatalf("Len = %d, want %d", b.Len(), len(gens))
		}
		// AddSignsRows updates fused as one row of 37 cells; SignedRows
		// also reads it as 37 rows of one cell, pinning the row split.
		x := make([]int64, len(gens))
		fused := make([]int64, len(gens))
		want := make([]int64, len(gens))
		signs := make([]uint64, b.SignWords())
		p := &Prep{}
		for i := 0; i < 200; i++ {
			v := rng.Uint64()
			delta := int64(rng.IntN(7) - 3)
			fam.Prepare(v, p)
			b.Signs(p, signs)
			AddSigns(signs, delta, x)
			for c, g := range gens {
				want[c] += int64(g.Xi(p)) * delta
			}
			for _, nrows := range []int{1, len(gens)} {
				rows := make([]int64, nrows)
				got := make([]int64, nrows)
				if nrows == 1 {
					AddSignsRows(signs, delta, fused, rows)
				}
				SignedRows(signs, fused, got)
				wantRows := make([]int64, nrows)
				for c, g := range gens {
					wantRows[c*nrows/len(gens)] += int64(g.Xi(p)) * fused[c]
				}
				for r := range got {
					if nrows == 1 && rows[r] != wantRows[r] {
						t.Fatalf("kind %v value %#x: AddSignsRows row sum %d, want %d", fam.Kind(), v, rows[r], wantRows[r])
					}
					if got[r] != wantRows[r] {
						t.Fatalf("kind %v value %#x row %d/%d: SignedRows %d, want %d", fam.Kind(), v, r, nrows, got[r], wantRows[r])
					}
				}
			}
		}
		for c := range x {
			if x[c] != want[c] || fused[c] != want[c] {
				t.Fatalf("kind %v cell %d: batched counter %d, fused %d, per-generator %d", fam.Kind(), c, x[c], fused[c], want[c])
			}
		}
	}
}

// checkSigns compares Batch.Signs against the reference Generator.Xi
// on every cell, and asserts the padding bits past Len stay clear.
func checkSigns(t testing.TB, gens []*Generator, b *Batch, p *Prep, signs []uint64) {
	t.Helper()
	b.Signs(p, signs)
	for c, g := range gens {
		bit := signs[c/64] >> uint(c%64) & 1
		if want := g.Xi(p) == -1; (bit == 1) != want {
			t.Fatalf("kind %v, %d cells: cell %d sign bit %d, Xi %d", g.fam.Kind(), len(gens), c, bit, g.Xi(p))
		}
	}
	if r := len(gens) % 64; r != 0 && signs[len(signs)-1]>>uint(r) != 0 {
		t.Fatalf("kind %v, %d cells: padding bits set %#x", gens[0].fam.Kind(), len(gens), signs[len(signs)-1])
	}
}

// The bit-sliced sign kernel must equal the per-generator definition
// for both families at every sign-word boundary: below, at and past 64
// cells, the default 175 cells and a wide 525.
func TestSignsMatchXi(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 34))
	poly, err := NewPolyFamily(field63, 6)
	if err != nil {
		t.Fatal(err)
	}
	field62 := gf2.MustField(gf2.DefaultModulus(62))
	for _, fam := range []*Family{NewBCHFamily(field62), NewBCHFamily(field63), poly} {
		for _, n := range []int{1, 63, 64, 65, 175, 525} {
			gens := make([]*Generator, n)
			for i := range gens {
				gens[i] = fam.NewGenerator(rng)
			}
			b, err := NewBatch(gens)
			if err != nil {
				t.Fatal(err)
			}
			if want := (n + 63) / 64; b.SignWords() != want {
				t.Fatalf("%d cells: SignWords %d, want %d", n, b.SignWords(), want)
			}
			signs := make([]uint64, b.SignWords())
			p := &Prep{}
			for _, v := range []uint64{0, 1, 2, 1<<61 - 1, 0x9e3779b97f4a7c15 >> 3} {
				checkSigns(t, gens, b, fam.Prepare(v, p), signs)
			}
			for i := 0; i < 50; i++ {
				checkSigns(t, gens, b, fam.Prepare(rng.Uint64()>>2, p), signs)
			}
		}
	}
}

func TestNewBatchValidation(t *testing.T) {
	if _, err := NewBatch(nil); err == nil {
		t.Error("empty generator set must fail")
	}
	rng := rand.New(rand.NewPCG(1, 2))
	a := NewBCHFamily(field63).NewGenerator(rng)
	b := NewBCHFamily(field4).NewGenerator(rng)
	if _, err := NewBatch([]*Generator{a, b}); err == nil {
		t.Error("mixed families must fail")
	}
}

func batch175(b *testing.B) (*Batch, *Prep) {
	rng := rand.New(rand.NewPCG(5, 6))
	fam := NewBCHFamily(field63)
	gens := make([]*Generator, 175) // s1=25 × s2=7, the default sketch
	for i := range gens {
		gens[i] = fam.NewGenerator(rng)
	}
	batch, err := NewBatch(gens)
	if err != nil {
		b.Fatal(err)
	}
	return batch, fam.Prepare(0x9e3779b97f4a7c15, nil)
}

func BenchmarkBatchSignsBCH175(b *testing.B) {
	batch, p := batch175(b)
	signs := make([]uint64, batch.SignWords())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Signs(p, signs)
	}
}

func BenchmarkAddSigns175(b *testing.B) {
	batch, p := batch175(b)
	signs := make([]uint64, batch.SignWords())
	batch.Signs(p, signs)
	x := make([]int64, batch.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddSigns(signs, 1, x)
	}
}

func BenchmarkAddSignsRows175(b *testing.B) {
	batch, p := batch175(b)
	signs := make([]uint64, batch.SignWords())
	batch.Signs(p, signs)
	x := make([]int64, batch.Len())
	rows := make([]int64, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddSignsRows(signs, 1, x, rows)
	}
}

func BenchmarkGeneratorXi175(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	fam := NewBCHFamily(field63)
	gens := make([]*Generator, 175)
	for i := range gens {
		gens[i] = fam.NewGenerator(rng)
	}
	x := make([]int64, len(gens))
	p := fam.Prepare(0x9e3779b97f4a7c15, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c, g := range gens {
			if g.Xi(p) == 1 {
				x[c]++
			} else {
				x[c]--
			}
		}
	}
}

func FuzzSigns(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint16(175), false)
	f.Add(uint64(1<<61-1), uint64(7), uint16(64), true)
	f.Add(uint64(0x9e3779b97f4a7c15), uint64(3), uint16(65), false)
	poly, err := NewPolyFamily(field63, 6)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, v, seed uint64, cells uint16, usePoly bool) {
		fam := NewBCHFamily(field63)
		if usePoly {
			fam = poly
		}
		rng := rand.New(rand.NewPCG(seed, 5))
		gens := make([]*Generator, 1+int(cells)%600)
		for i := range gens {
			gens[i] = fam.NewGenerator(rng)
		}
		b, err := NewBatch(gens)
		if err != nil {
			t.Fatal(err)
		}
		checkSigns(t, gens, b, fam.Prepare(v, nil), make([]uint64, b.SignWords()))
	})
}
