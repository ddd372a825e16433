package gf2

import (
	"math/bits"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// clmulNaive is the bit-by-bit reference implementation.
func clmulNaive(a, b uint64) (hi, lo uint64) {
	for i := uint(0); i < 64; i++ {
		if b&(1<<i) == 0 {
			continue
		}
		lo ^= a << i
		if i > 0 {
			hi ^= a >> (64 - i)
		}
	}
	return hi, lo
}

func TestDeg(t *testing.T) {
	cases := []struct {
		p uint64
		d int
	}{{0, -1}, {1, 0}, {2, 1}, {3, 1}, {0b1000, 3}, {1 << 63, 63}, {^uint64(0), 63}}
	for _, c := range cases {
		if got := Deg(c.p); got != c.d {
			t.Errorf("Deg(%#x) = %d, want %d", c.p, got, c.d)
		}
	}
}

func TestClmulKnown(t *testing.T) {
	// (x+1)(x+1) = x^2+1 over GF(2).
	hi, lo := Clmul(3, 3)
	if hi != 0 || lo != 5 {
		t.Errorf("Clmul(3,3) = (%#x,%#x), want (0,5)", hi, lo)
	}
	// x^63 * x^63 = x^126.
	hi, lo = Clmul(1<<63, 1<<63)
	if hi != 1<<62 || lo != 0 {
		t.Errorf("Clmul(x^63,x^63) = (%#x,%#x), want (x^126, 0)", hi, lo)
	}
	hi, lo = Clmul(0, 12345)
	if hi != 0 || lo != 0 {
		t.Error("Clmul with zero operand must be zero")
	}
	// Dense operands fill every column of the part products: the
	// integer-multiply carries must stay inside their slots.
	for _, c := range [][2]uint64{{^uint64(0), ^uint64(0)}, {0xffffffff, 0xffffffff}, {^uint64(0), 1<<63 | 1}, {0x5555555555555555, 0xaaaaaaaaaaaaaaaa}} {
		h1, l1 := Clmul(c[0], c[1])
		h2, l2 := clmulNaive(c[0], c[1])
		if h1 != h2 || l1 != l2 {
			t.Errorf("Clmul(%#x, %#x) = (%#x,%#x), naive (%#x,%#x)", c[0], c[1], h1, l1, h2, l2)
		}
	}
}

func TestQuickClmulMatchesNaive(t *testing.T) {
	f := func(a, b uint64) bool {
		h1, l1 := Clmul(a, b)
		h2, l2 := clmulNaive(a, b)
		return h1 == h2 && l1 == l2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickClmulCommutative(t *testing.T) {
	f := func(a, b uint64) bool {
		h1, l1 := Clmul(a, b)
		h2, l2 := Clmul(b, a)
		return h1 == h2 && l1 == l2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestMod(t *testing.T) {
	// x^2 mod (x^2+x+1) = x+1.
	if got := Mod(0b100, 0b111); got != 0b11 {
		t.Errorf("Mod = %#b, want 11", got)
	}
	if got := Mod(5, 7); Deg(got) >= Deg(7) {
		t.Errorf("Mod result degree too large: %#x", got)
	}
	if got := Mod(0, 7); got != 0 {
		t.Errorf("Mod(0, m) = %#x", got)
	}
}

func TestMod128MatchesIteratedMod(t *testing.T) {
	// Verify Mod128 by reducing via naive shift-subtract over 128 bits.
	naive := func(hi, lo, m uint64) uint64 {
		d := Deg(m)
		for i := 127; i >= d; i-- {
			var set bool
			if i >= 64 {
				set = hi&(1<<uint(i-64)) != 0
			} else {
				set = lo&(1<<uint(i)) != 0
			}
			if !set {
				continue
			}
			s := i - d
			switch {
			case s >= 64:
				hi ^= m << uint(s-64)
			default:
				lo ^= m << uint(s)
				if s > 0 {
					hi ^= m >> uint(64-s)
				}
			}
		}
		return lo
	}
	f := func(hi, lo, mseed uint64) bool {
		m := mseed | 1<<62 | 1 // force degree 62, nonzero constant
		return Mod128(hi, lo, m) == naive(hi, lo, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestGCD(t *testing.T) {
	// gcd(x^2+1, x+1) = x+1 since x^2+1 = (x+1)^2.
	if got := GCD(0b101, 0b11); got != 0b11 {
		t.Errorf("GCD = %#b, want 11", got)
	}
	if got := GCD(0, 0b101); got != 0b101 {
		t.Errorf("GCD(0, p) = %#b, want p", got)
	}
	if got := GCD(0b101, 0); got != 0b101 {
		t.Errorf("GCD(p, 0) = %#b, want p", got)
	}
}

func TestIrreducibleSmall(t *testing.T) {
	irreducible := []uint64{
		0b10,     // x
		0b11,     // x + 1
		0b111,    // x^2 + x + 1
		0b1011,   // x^3 + x + 1
		0b1101,   // x^3 + x^2 + 1
		0b10011,  // x^4 + x + 1
		0b100101, // x^5 + x^2 + 1
	}
	for _, m := range irreducible {
		if !Irreducible(m) {
			t.Errorf("%#b should be irreducible", m)
		}
	}
	reducible := []uint64{
		0,
		1,       // constant
		0b101,   // x^2 + 1 = (x+1)^2
		0b110,   // x^2 + x = x(x+1)
		0b100,   // x^2
		0b1001,  // x^3 + 1 = (x+1)(x^2+x+1)
		0b1111,  // x^3+x^2+x+1 = (x+1)^3
		0b11111, // x^4+x^3+x^2+x+1 reducible? (x^5-1)/(x-1); 5 | 2^4-1, so it factors iff ord... actually it is irreducible!
	}
	for _, m := range reducible[:7] {
		if Irreducible(m) {
			t.Errorf("%#b should be reducible", m)
		}
	}
	// x^4+x^3+x^2+x+1 is irreducible (the 5th cyclotomic polynomial;
	// 2 has order 4 mod 5).
	if !Irreducible(0b11111) {
		t.Error("x^4+x^3+x^2+x+1 should be irreducible")
	}
}

func TestIrreducibleAgainstBruteForce(t *testing.T) {
	// Compare Rabin's test against trial division for all polynomials
	// of degree <= 10.
	var polys []uint64
	for d := 1; d <= 10; d++ {
		lo := uint64(1) << uint(d)
		for p := lo; p < lo<<1; p++ {
			polys = append(polys, p)
		}
	}
	bruteIrr := func(p uint64) bool {
		d := Deg(p)
		if d < 1 {
			return false
		}
		for q := uint64(2); Deg(q) <= d/2; q++ {
			if Deg(q) >= 1 && Mod(p, q) == 0 {
				return false
			}
		}
		return true
	}
	for _, p := range polys {
		if got, want := Irreducible(p), bruteIrr(p); got != want {
			t.Errorf("Irreducible(%#b) = %v, want %v", p, got, want)
		}
	}
}

func TestKnownLargeIrreducibles(t *testing.T) {
	// The trinomial x^31 + x^3 + 1 and x^63 + x + 1, both classical.
	if !Irreducible(1<<31 | 1<<3 | 1) {
		t.Error("x^31+x^3+1 should be irreducible")
	}
	if !Irreducible(1<<63 | 1<<1 | 1) {
		t.Error("x^63+x+1 should be irreducible")
	}
}

func TestDefaultModulus(t *testing.T) {
	for _, d := range []int{8, 31, 61, 63} {
		m := DefaultModulus(d)
		if Deg(m) != d {
			t.Errorf("DefaultModulus(%d) has degree %d", d, Deg(m))
		}
		if !Irreducible(m) {
			t.Errorf("DefaultModulus(%d) = %#x is reducible", d, m)
		}
		if m2 := DefaultModulus(d); m2 != m {
			t.Errorf("DefaultModulus(%d) not deterministic: %#x vs %#x", d, m, m2)
		}
	}
}

func TestDefaultModulusPanics(t *testing.T) {
	for _, d := range []int{0, -1, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DefaultModulus(%d) must panic", d)
				}
			}()
			DefaultModulus(d)
		}()
	}
}

func TestRandomIrreducible(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	seen := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		m := RandomIrreducible(31, rng)
		if Deg(m) != 31 || !Irreducible(m) {
			t.Fatalf("RandomIrreducible returned bad polynomial %#x", m)
		}
		seen[m] = true
	}
	if len(seen) < 10 {
		t.Errorf("RandomIrreducible shows poor diversity: %d distinct of 20", len(seen))
	}
	if m := RandomIrreducible(1, rng); m != 0b11 {
		t.Errorf("degree-1: got %#b", m)
	}
}

func TestNewFieldValidation(t *testing.T) {
	if _, err := NewField(0b101); err == nil {
		t.Error("reducible modulus must be rejected")
	}
	if _, err := NewField(1); err == nil {
		t.Error("constant modulus must be rejected")
	}
	if _, err := NewField(0); err == nil {
		t.Error("zero modulus must be rejected")
	}
	f, err := NewField(0b111)
	if err != nil {
		t.Fatal(err)
	}
	if f.Degree() != 2 || f.Modulus() != 0b111 {
		t.Error("field accessors wrong")
	}
}

func TestMustFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustField of reducible modulus must panic")
		}
	}()
	MustField(0b101)
}

func TestFieldGF4(t *testing.T) {
	// GF(4) = GF(2)[x]/(x^2+x+1): elements 0,1,x,x+1.
	f := MustField(0b111)
	// x * x = x+1; x * (x+1) = x^2+x = 1.
	if got := f.Mul(2, 2); got != 3 {
		t.Errorf("x*x = %d, want 3", got)
	}
	if got := f.Mul(2, 3); got != 1 {
		t.Errorf("x*(x+1) = %d, want 1", got)
	}
	if got := f.Inv(2); got != 3 {
		t.Errorf("inv(x) = %d, want 3", got)
	}
	if got := f.Cube(2); got != f.Mul(f.Mul(2, 2), 2) {
		t.Errorf("Cube mismatch: %d", got)
	}
}

func field63() *Field { return MustField(1<<63 | 1<<1 | 1) }

func TestQuickFieldAxioms(t *testing.T) {
	f := field63()
	mask := uint64(1)<<63 - 1
	assoc := func(a, b, c uint64) bool {
		a, b, c = a&mask, b&mask, c&mask
		return f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c))
	}
	if err := quick.Check(assoc, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("associativity: %v", err)
	}
	distrib := func(a, b, c uint64) bool {
		a, b, c = a&mask, b&mask, c&mask
		return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
	}
	if err := quick.Check(distrib, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("distributivity: %v", err)
	}
	identity := func(a uint64) bool {
		a &= mask
		return f.Mul(a, 1) == a && f.Mul(1, a) == a
	}
	if err := quick.Check(identity, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("identity: %v", err)
	}
	inverse := func(a uint64) bool {
		a &= mask
		if a == 0 {
			return true
		}
		return f.Mul(a, f.Inv(a)) == 1
	}
	if err := quick.Check(inverse, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("inverse: %v", err)
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Inv(0) must panic")
		}
	}()
	field63().Inv(0)
}

func TestPow(t *testing.T) {
	f := field63()
	if got := f.Pow(12345, 0); got != 1 {
		t.Errorf("a^0 = %d, want 1", got)
	}
	if got := f.Pow(12345, 1); got != 12345 {
		t.Errorf("a^1 = %d", got)
	}
	if got := f.Pow(12345, 3); got != f.Cube(12345) {
		t.Errorf("a^3 != Cube: %d", got)
	}
	// Fermat: a^(2^m - 1) == 1 for a != 0.
	e := uint64(1)<<63 - 1
	if got := f.Pow(987654321, e); got != 1 {
		t.Errorf("a^(2^m-1) = %d, want 1", got)
	}
}

func TestMulX(t *testing.T) {
	f := field63()
	q := func(a uint64) bool {
		a &= uint64(1)<<63 - 1
		return f.MulX(a) == f.Mul(a, 2)
	}
	if err := quick.Check(q, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBit0MulMask(t *testing.T) {
	f := field63()
	mask := uint64(1)<<63 - 1
	q := func(c, z uint64) bool {
		c, z = c&mask, z&mask
		m := f.Bit0MulMask(z)
		want := f.Mul(c, z) & 1
		got := uint64(bits.OnesCount64(c&m) & 1)
		return got == want
	}
	if err := quick.Check(q, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReduce(t *testing.T) {
	f := MustField(0b111)
	if got := f.Reduce(0b100); got != 0b11 {
		t.Errorf("Reduce(x^2) = %#b, want 11", got)
	}
}

func TestModPanicsOnZeroModulus(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mod with zero modulus must panic")
		}
	}()
	Mod(5, 0)
}

func TestMod128PanicsOnConstantModulus(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mod128 with constant modulus must panic")
		}
	}()
	Mod128(1, 2, 1)
}

func BenchmarkMul63(b *testing.B) {
	f := field63()
	b.ReportAllocs()
	var acc uint64 = 0x123456789abcdef
	for i := 0; i < b.N; i++ {
		acc = f.Mul(acc, 0x0fedcba987654321)
	}
	sink = acc
}

func BenchmarkCube63(b *testing.B) {
	f := field63()
	var acc uint64 = 0x123456789abcdef
	for i := 0; i < b.N; i++ {
		acc = f.Cube(acc | 1)
	}
	sink = acc
}

var sink uint64

// The table-driven Field reduction (mod128 via byte folds) and the
// spread-table Square are the hot-path fast paths; they must agree
// bit-for-bit with the generic Clmul/Mod128 reference on every degree,
// including the small-degree fallback below 8.
func TestFieldMulMatchesGenericMulMod(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for _, deg := range []int{2, 4, 7, 8, 9, 15, 31, 32, 61, 62, 63} {
		f := MustField(DefaultModulus(deg))
		for i := 0; i < 500; i++ {
			a, b := rng.Uint64(), rng.Uint64()
			hi, lo := Clmul(a, b)
			if got, want := f.Mul(a, b), Mod128(hi, lo, f.Modulus()); got != want {
				t.Fatalf("deg %d: Mul(%#x, %#x) = %#x, generic %#x", deg, a, b, got, want)
			}
		}
	}
}

func TestFieldSquareMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	for _, deg := range []int{2, 7, 8, 31, 61, 62, 63} {
		f := MustField(DefaultModulus(deg))
		for i := 0; i < 500; i++ {
			a := rng.Uint64()
			hi, lo := Clmul(a, a)
			if got, want := f.Square(a), Mod128(hi, lo, f.Modulus()); got != want {
				t.Fatalf("deg %d: Square(%#x) = %#x, generic %#x", deg, a, got, want)
			}
		}
	}
}

// The field's mod128 takes the one-step high-word tables from degree
// 56 up and the byte fold below; both must equal the generic Mod128.
func TestFastMod128MatchesMod128(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 23))
	for deg := 31; deg <= 63; deg++ {
		for _, m := range []uint64{DefaultModulus(deg), RandomIrreducible(deg, rng)} {
			f := MustField(m)
			if (f.hiRed != nil) != (deg >= 56) {
				t.Fatalf("degree %d: high-word tables present = %v", deg, f.hiRed != nil)
			}
			for i := 0; i < 300; i++ {
				hi, lo := rng.Uint64(), rng.Uint64()
				if i%3 == 0 {
					hi >>= uint(rng.IntN(64))
				}
				if got, want := f.mod128(hi, lo), Mod128(hi, lo, m); got != want {
					t.Fatalf("degree %d modulus %#x: mod128(%#x, %#x) = %#x, Mod128 %#x", deg, m, hi, lo, got, want)
				}
			}
		}
	}
}

// Fields are shared per modulus, so repeated construction (every
// engine restore) skips the irreducibility test and the tables.
func TestNewFieldShared(t *testing.T) {
	m := DefaultModulus(62)
	if MustField(m) != MustField(m) {
		t.Error("NewField of one modulus must return the shared field")
	}
}

// byteTable's linear fill must equal multiplying each byte by x^e
// bit by bit.
func TestByteTableMatchesShifts(t *testing.T) {
	m := DefaultModulus(61)
	var tab [256]uint64
	for _, e := range []int{0, 1, 61, 64, 120} {
		byteTable(m, e, &tab)
		for b := 0; b < 256; b++ {
			v := Mod(uint64(b), m)
			for i := 0; i < e; i++ {
				v = MulMod(v, 2, m)
			}
			if tab[b] != v {
				t.Fatalf("e=%d byte %#x: table %#x, shifted %#x", e, b, tab[b], v)
			}
		}
	}
}
