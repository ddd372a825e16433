// Package gf2 implements polynomial arithmetic over GF(2) and the
// finite fields GF(2^m) for m <= 63. It is the substrate for two parts
// of SketchTree: Rabin fingerprinting with random irreducible
// polynomials (paper §6.1) and the BCH / polynomial-hash constructions
// of four-wise and k-wise independent ±1 random variables (paper §3).
//
// A polynomial over GF(2) of degree <= 63 is represented as a uint64
// with bit i holding the coefficient of x^i. A modulus of degree m has
// bit m set; field elements are reduced polynomials of degree < m.
package gf2

import (
	"fmt"
	"math/bits"
	"sync"
)

// Deg returns the degree of the polynomial, or -1 for the zero
// polynomial.
func Deg(p uint64) int {
	return 63 - bits.LeadingZeros64(p)
}

// Clmul computes the 128-bit carry-less (GF(2)) product of a and b by
// Karatsuba over 32-bit halves: three clmul32 products.
func Clmul(a, b uint64) (hi, lo uint64) {
	a0, a1 := a&0xffffffff, a>>32
	b0, b1 := b&0xffffffff, b>>32
	p0, p2 := clmul32(a0, b0), clmul32(a1, b1)
	p1 := clmul32(a0^a1, b0^b1) ^ p0 ^ p2
	return p2 ^ p1>>32, p0 ^ p1<<32
}

// clmul32 returns the 64-bit carry-less product of two values below
// 2^32 with integer multiplications. Each operand is split into four
// parts of every fourth bit (8 bits each), so every bit of a part
// product sits in a 4-bit slot whose column sums at most 8 one-bits:
// carries stay inside the slot, and the slot's low bit is the column's
// parity. Part products whose bit offsets add to r (mod 4) hold bit
// positions ≡ r (mod 4) of the carry-less product.
func clmul32(x, y uint64) uint64 {
	const m0, m1, m2, m3 = 0x11111111, 0x22222222, 0x44444444, 0x88888888
	x0, x1, x2, x3 := x&m0, x&m1, x&m2, x&m3
	y0, y1, y2, y3 := y&m0, y&m1, y&m2, y&m3
	z0 := x0*y0 ^ x1*y3 ^ x2*y2 ^ x3*y1
	z1 := x0*y1 ^ x1*y0 ^ x2*y3 ^ x3*y2
	z2 := x0*y2 ^ x1*y1 ^ x2*y0 ^ x3*y3
	z3 := x0*y3 ^ x1*y2 ^ x2*y1 ^ x3*y0
	return z0&0x1111111111111111 | z1&0x2222222222222222 |
		z2&0x4444444444444444 | z3&0x8888888888888888
}

// Mod reduces a modulo the polynomial m (m != 0).
func Mod(a, m uint64) uint64 {
	d := Deg(m)
	if d < 0 {
		panic("gf2: modulus is zero")
	}
	for da := Deg(a); da >= d; da = Deg(a) {
		a ^= m << uint(da-d)
	}
	return a
}

// Mod128 reduces the 128-bit polynomial (hi, lo) modulo m, where
// 1 <= deg(m) <= 63.
func Mod128(hi, lo, m uint64) uint64 {
	d := Deg(m)
	if d < 1 {
		panic("gf2: modulus must have degree >= 1")
	}
	for i := 63; i >= 0; i-- {
		if hi&(1<<uint(i)) == 0 {
			continue
		}
		s := 64 + i - d // >= 1 because d <= 63
		if s >= 64 {
			hi ^= m << uint(s-64)
		} else {
			hi ^= m >> uint(64-s)
			lo ^= m << uint(s)
		}
	}
	return Mod(lo, m)
}

// MulMod returns a*b mod m.
func MulMod(a, b, m uint64) uint64 {
	hi, lo := Clmul(a, b)
	return Mod128(hi, lo, m)
}

// GCD returns the greatest common divisor of the polynomials a and b
// (monic by construction over GF(2)).
func GCD(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, Mod(a, b)
	}
	return a
}

// Irreducible reports whether the polynomial m is irreducible over
// GF(2), using Rabin's irreducibility test: m of degree n is
// irreducible iff x^(2^n) == x (mod m) and gcd(x^(2^(n/p)) - x, m) = 1
// for every prime p dividing n.
func Irreducible(m uint64) bool {
	n := Deg(m)
	if n < 1 {
		return false
	}
	if n == 1 {
		return true // x and x+1
	}
	const x = 2 // the polynomial "x"
	// x^(2^n) mod m via n squarings.
	h := uint64(x)
	for i := 0; i < n; i++ {
		h = MulMod(h, h, m)
	}
	if h != Mod(x, m) {
		return false
	}
	for _, p := range primeDivisors(n) {
		h := uint64(x)
		for i := 0; i < n/p; i++ {
			h = MulMod(h, h, m)
		}
		if Deg(GCD(h^x, m)) != 0 {
			return false
		}
	}
	return true
}

func primeDivisors(n int) []int {
	var out []int
	for p := 2; p*p <= n; p++ {
		if n%p == 0 {
			out = append(out, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	return out
}

// RandomIrreducible draws uniformly random polynomials of the given
// degree (1 <= deg <= 63) with nonzero constant term until one is
// irreducible, using the provided random source. Roughly one in deg
// candidates is irreducible, so this terminates quickly.
func RandomIrreducible(deg int, rnd interface{ Uint64() uint64 }) uint64 {
	if deg < 1 || deg > 63 {
		panic(fmt.Sprintf("gf2: unsupported degree %d", deg))
	}
	if deg == 1 {
		return 1<<1 | 1 // x + 1, the only degree-1 poly with constant term
	}
	top, low := uint64(1)<<uint(deg), uint64(1)
	mask := top - 1
	for {
		m := top | (rnd.Uint64() & mask) | low
		if Irreducible(m) {
			return m
		}
	}
}

var (
	defaultModMu sync.Mutex
	defaultMods  = map[int]uint64{}
)

// DefaultModulus returns the lexicographically smallest irreducible
// polynomial of the given degree. It is deterministic, so all processes
// agree on it; use RandomIrreducible for the paper's
// "chosen uniformly at random" semantics.
func DefaultModulus(deg int) uint64 {
	if deg < 1 || deg > 63 {
		panic(fmt.Sprintf("gf2: unsupported degree %d", deg))
	}
	defaultModMu.Lock()
	defer defaultModMu.Unlock()
	if m, ok := defaultMods[deg]; ok {
		return m
	}
	top := uint64(1) << uint(deg)
	for c := uint64(1); ; c += 2 { // constant term must be 1 for deg >= 2
		m := top | c
		if Irreducible(m) {
			defaultMods[deg] = m
			return m
		}
	}
}

// Field is GF(2^m) = GF(2)[x] / (modulus), for 1 <= m <= 63. A Field
// is immutable after construction and safe for concurrent use.
type Field struct {
	modulus uint64
	deg     int
	mask    uint64 // deg low bits

	// Byte-fold reduction tables for degrees >= 8: fold[i][t] =
	// t·x^(deg+8i) mod modulus. fold[0] folds one byte into a residue
	// (foldByte); it turns the 128-bit reduction of Mul/Square into
	// table lookups instead of a 64-iteration branchy loop — the
	// per-pattern ξ preparation (Reduce, Cube) is on the stream hot
	// path. All eight fold eight bytes at once, as independent lookups:
	// the slicing-by-8 step of Rabin fingerprinting, which reads them
	// through FoldTables. top is deg-8; fold stays nil for degrees
	// below 8, where the generic Mod128 is used instead.
	fold *[8][256]uint64
	top  uint

	// hiRed, for degrees >= 56, reduces the high word of a 128-bit
	// product in one step: hiRed[i][t] = t·x^(64+8i) mod modulus, so
	// hi·x^64 mod modulus is the XOR of eight independent lookups, one
	// per byte of hi, instead of a serial fold through all 16 bytes.
	// The low word then needs only fold[0]: above bit deg it has at
	// most 8 bits. nil below degree 56.
	hiRed *[8][256]uint64
}

// byteTable fills tab with tab[t] = t·x^e mod m for every byte t. The
// eight powers x^e .. x^(e+7) form the basis; every other entry is the
// XOR of the basis rows of its set bits (multiplication by a fixed
// polynomial is GF(2)-linear), so the table costs one XOR per entry.
// m must have degree >= 1.
func byteTable(m uint64, e int, tab *[256]uint64) {
	d := Deg(m)
	if d < 1 {
		panic("gf2: modulus must have degree >= 1")
	}
	p := Mod(1, m)
	for i := 0; i < e; i++ {
		p = mulX(p, m, d)
	}
	tab[0] = 0
	for b := 0; b < 8; b++ {
		tab[1<<b] = p
		p = mulX(p, m, d)
	}
	for t := 3; t < 256; t++ {
		if low := t & -t; low != t {
			tab[t] = tab[low] ^ tab[t^low]
		}
	}
}

// mulX returns a·x mod m for a reduced a, where d = deg(m).
func mulX(a, m uint64, d int) uint64 {
	a <<= 1
	if a&(1<<uint(d)) != 0 {
		a ^= m
	}
	return a
}

// sqrTab spreads the 8 bits of a byte to the 16 even bit positions:
// squaring over GF(2) maps bit i to bit 2i with no cross terms.
var sqrTab [256]uint16

func init() {
	for b := 0; b < 256; b++ {
		var s uint16
		for i := 0; i < 8; i++ {
			s |= uint16(b>>uint(i)&1) << uint(2*i)
		}
		sqrTab[b] = s
	}
}

// Fields are cached per modulus, so the irreducibility test and the
// reduction tables are paid once per process however many engines are
// built or restored over the same field. The cache is bounded: past
// maxCachedFields distinct moduli, fields are built uncached.
const maxCachedFields = 64

var (
	fieldMu sync.Mutex
	fields  = map[uint64]*Field{}
)

// NewField returns the field defined by the given irreducible modulus,
// shared with every other caller of the same modulus. Returns an error
// if the modulus is reducible or out of range.
func NewField(modulus uint64) (*Field, error) {
	d := Deg(modulus)
	if d < 1 || d > 63 {
		return nil, fmt.Errorf("gf2: modulus degree %d out of range [1, 63]", d)
	}
	fieldMu.Lock()
	defer fieldMu.Unlock()
	if f, ok := fields[modulus]; ok {
		return f, nil
	}
	if !Irreducible(modulus) {
		return nil, fmt.Errorf("gf2: modulus %#x is reducible", modulus)
	}
	f := &Field{modulus: modulus, deg: d, mask: 1<<uint(d) - 1}
	if d >= 8 {
		f.top = uint(d - 8)
		f.fold = new([8][256]uint64)
		for i := range f.fold {
			byteTable(modulus, d+8*i, &f.fold[i])
		}
	}
	if d >= 56 {
		f.hiRed = new([8][256]uint64)
		for i := range f.hiRed {
			byteTable(modulus, 64+8*i, &f.hiRed[i])
		}
	}
	if len(fields) < maxCachedFields {
		fields[modulus] = f
	}
	return f, nil
}

// MustField is NewField that panics on error, for package-level
// constants.
func MustField(modulus uint64) *Field {
	f, err := NewField(modulus)
	if err != nil {
		panic(err)
	}
	return f
}

// Degree returns m for GF(2^m).
func (f *Field) Degree() int { return f.deg }

// Modulus returns the defining irreducible polynomial.
func (f *Field) Modulus() uint64 { return f.modulus }

// FoldTables returns the byte-fold tables, FoldTables()[i][t] =
// t·x^(Degree+8i) mod Modulus, or nil below degree 8. They are shared
// and must not be modified.
func (f *Field) FoldTables() *[8][256]uint64 { return f.fold }

// Reduce maps an arbitrary uint64 into the field by reduction mod the
// modulus.
//
//lint:hotpath
func (f *Field) Reduce(a uint64) uint64 { return Mod(a, f.modulus) }

// Add returns a + b (XOR).
func (f *Field) Add(a, b uint64) uint64 { return a ^ b }

// foldByte folds one byte into a running residue r < 2^deg:
// r·x^8 + b mod modulus, via one table lookup. Small enough for the
// inliner, so the mod128 loop compiles without call overhead.
func (f *Field) foldByte(r uint64, b byte) uint64 {
	return (r<<8|uint64(b))&f.mask ^ f.fold[0][r>>f.top]
}

// mod128 reduces the 128-bit polynomial (hi, lo): with the one-step
// high-word tables from degree 56 up (the default ξ field has degree
// 62), with the byte fold from degree 8, else with the generic
// Mod128. Each path computes (hi·x^64 + lo) mod modulus exactly.
//
//lint:hotpath
func (f *Field) mod128(hi, lo uint64) uint64 {
	if h := f.hiRed; h != nil {
		return lo&f.mask ^ f.fold[0][lo>>uint(f.deg)] ^
			h[0][byte(hi)] ^ h[1][byte(hi>>8)] ^ h[2][byte(hi>>16)] ^ h[3][byte(hi>>24)] ^
			h[4][byte(hi>>32)] ^ h[5][byte(hi>>40)] ^ h[6][byte(hi>>48)] ^ h[7][byte(hi>>56)]
	}
	if f.fold == nil {
		return Mod128(hi, lo, f.modulus)
	}
	// Folding the 16 bytes most-significant first.
	var r uint64
	for s := 56; s >= 0; s -= 8 {
		r = f.foldByte(r, byte(hi>>uint(s)))
	}
	for s := 56; s >= 0; s -= 8 {
		r = f.foldByte(r, byte(lo>>uint(s)))
	}
	return r
}

// Mul returns a * b in the field.
//
//lint:hotpath
func (f *Field) Mul(a, b uint64) uint64 {
	hi, lo := Clmul(a, b)
	return f.mod128(hi, lo)
}

// Square returns a² in the field. Squaring over GF(2) has no cross
// terms — bit i maps to bit 2i — so the 128-bit square is 8 spread-table
// lookups rather than a carry-less multiplication.
//
//lint:hotpath
func (f *Field) Square(a uint64) uint64 {
	lo := uint64(sqrTab[byte(a)]) |
		uint64(sqrTab[byte(a>>8)])<<16 |
		uint64(sqrTab[byte(a>>16)])<<32 |
		uint64(sqrTab[byte(a>>24)])<<48
	hi := uint64(sqrTab[byte(a>>32)]) |
		uint64(sqrTab[byte(a>>40)])<<16 |
		uint64(sqrTab[byte(a>>48)])<<32 |
		uint64(sqrTab[byte(a>>56)])<<48
	return f.mod128(hi, lo)
}

// Cube returns a³ in the field (used by the BCH four-wise ξ
// construction).
//
//lint:hotpath
func (f *Field) Cube(a uint64) uint64 { return f.Mul(f.Square(a), a) }

// Pow returns a^e in the field by square-and-multiply.
func (f *Field) Pow(a, e uint64) uint64 {
	result := uint64(1)
	base := a
	for e > 0 {
		if e&1 != 0 {
			result = f.Mul(result, base)
		}
		base = f.Square(base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a (a != 0) via
// a^(2^m - 2).
func (f *Field) Inv(a uint64) uint64 {
	if a == 0 {
		panic("gf2: inverse of zero")
	}
	// 2^m - 2: all bits 1..m-1 set.
	e := (uint64(1)<<uint(f.deg) - 1) &^ 1
	return f.Pow(a, e)
}

// MulX returns a * x in the field (a single LFSR step).
func (f *Field) MulX(a uint64) uint64 { return mulX(a, f.modulus, f.deg) }

// Bit0MulMask returns the mask M such that for any field element c,
// bit0(c * z) == parity(c & M). Bit i of M is bit 0 of x^i * z; the
// identity holds because multiplication by z is linear over GF(2) and c
// is the sum of the x^i with bit i set. This turns a field
// multiplication inside the ξ generators into an AND plus a popcount.
func (f *Field) Bit0MulMask(z uint64) uint64 {
	var m uint64
	zi := f.Reduce(z)
	for i := 0; i < f.deg; i++ {
		m |= (zi & 1) << uint(i)
		zi = f.MulX(zi)
	}
	return m
}
