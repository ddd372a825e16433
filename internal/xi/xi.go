// Package xi generates the families of four-wise and k-wise independent
// ±1 random variables that drive AMS sketches (paper §3).
//
// Two constructions are provided:
//
//   - BCH: the Alon–Matias–Szegedy construction from parity-check
//     matrices of binary BCH codes. For a value v (an element of
//     GF(2^m)) the variable is ξ_v = (-1)^(s0 ⊕ <s1,v> ⊕ <s2,v³>),
//     where <a,b> is the GF(2) inner product of bit vectors and v³ is
//     computed in GF(2^m). The family {ξ_v} is exactly four-wise
//     independent. This is SketchTree's default.
//
//   - Poly: ξ_v = (-1)^bit0(c_0 + c_1·v + ... + c_(k-1)·v^(k-1)) with
//     uniformly random coefficients c_j in GF(2^m). Evaluations of a
//     random degree-(k-1) polynomial at distinct points are k-wise
//     independent uniform field elements, so any fixed bit of them is a
//     k-wise independent unbiased bit. This supplies the k-wise (k > 4)
//     variables required by the query-expression estimators of paper §4
//     (e.g. products of counts need at least 5-wise independence,
//     Appendix B).
//
// Computing ξ_v for one value across many sketch instances is the hot
// path of stream processing: each value updates s1 × s2 independent
// sketches. The API therefore splits the work into a value-side
// Prepare — the GF(2^m) products, done once per value — and a cheap
// per-instance Xi that reduces to AND + popcount-parity on the prepared
// words. For the Poly construction this uses the identity
// bit0(c · z) = parity(c & M(z)) with M(z) the bit-0 mask of
// multiplication by z (gf2.Field.Bit0MulMask). Xi is the reference
// definition; the stream path evaluates all instances at once with
// Batch.Signs, bit-sliced from per-nibble tables.
package xi

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"sketchtree/internal/gf2"
)

// Kind selects the construction of a Family.
type Kind int

const (
	// BCH is the four-wise independent AMS construction.
	BCH Kind = iota
	// Poly is the k-wise independent polynomial-hash construction.
	Poly
)

// Family describes a construction of ±1 variables over a fixed field.
// All Generators of a family share the value-side preparation, so one
// Prep per stream value serves every sketch instance.
type Family struct {
	field *gf2.Field
	kind  Kind
	k     int // independence level; number of seed words
}

// NewBCHFamily returns the four-wise independent BCH family over the
// given field.
func NewBCHFamily(field *gf2.Field) *Family {
	return &Family{field: field, kind: BCH, k: 4}
}

// NewPolyFamily returns a k-wise independent polynomial family over the
// given field. k must be at least 2.
func NewPolyFamily(field *gf2.Field, k int) (*Family, error) {
	if k < 2 {
		return nil, fmt.Errorf("xi: independence level %d < 2", k)
	}
	if k > field.Degree() {
		// More coefficients than field elements on a path makes no
		// sense for tiny fields; guard against misconfiguration.
		if field.Degree() < 8 && k > 1<<uint(field.Degree()) {
			return nil, fmt.Errorf("xi: independence %d exceeds field size", k)
		}
	}
	return &Family{field: field, kind: Poly, k: k}, nil
}

// Independence returns the independence level of the family: 4 for BCH,
// k for Poly.
func (f *Family) Independence() int { return f.k }

// Field returns the underlying field.
func (f *Family) Field() *gf2.Field { return f.field }

// Kind returns the construction of this family.
func (f *Family) Kind() Kind { return f.kind }

// words returns the number of prepared/seed words per value.
func (f *Family) words() int {
	if f.kind == BCH {
		return 2 // v and v³
	}
	return f.k // masks for v^0 .. v^(k-1)
}

// Prep holds the value-side precomputation for one stream value. A
// Prep may be reused across calls to Prepare to avoid allocation.
type Prep struct {
	words []uint64
}

// Prepare computes the value-side words for v into p and returns p.
// If p is nil a new Prep is allocated. The value is reduced into the
// field; values must be below 2^Degree for the family to distinguish
// them.
//
//lint:hotpath
func (f *Family) Prepare(v uint64, p *Prep) *Prep {
	if p == nil {
		p = &Prep{} //lint:allow hotpath nil-Prep convenience path; update and query paths pass a reused Prep
	}
	n := f.words()
	if cap(p.words) < n {
		p.words = make([]uint64, n) //lint:allow hotpath grows once to the family width, then reused in place
	}
	p.words = p.words[:n]
	fv := f.field.Reduce(v)
	if f.kind == BCH {
		p.words[0] = fv
		p.words[1] = f.field.Cube(fv)
		return p
	}
	// Poly: masks[j] = Bit0MulMask(v^j).
	pow := uint64(1)
	for j := 0; j < n; j++ {
		p.words[j] = f.field.Bit0MulMask(pow)
		pow = f.field.Mul(pow, fv)
	}
	return p
}

// Generator is one member of the family, identified by its random
// seed. Generators of the same family evaluated on the same Prep give
// independent variables when their seeds are independent.
type Generator struct {
	fam  *Family
	sign uint64   // BCH only: the constant bit s0
	seed []uint64 // BCH: s1, s2; Poly: coefficients c_0..c_(k-1)
}

// NewGenerator draws a fresh random generator of the family from rnd.
func (f *Family) NewGenerator(rnd interface{ Uint64() uint64 }) *Generator {
	g := &Generator{fam: f, seed: make([]uint64, f.words())}
	mask := uint64(1)<<uint(f.field.Degree()) - 1
	if f.kind == BCH {
		g.sign = rnd.Uint64() & 1
	}
	for i := range g.seed {
		g.seed[i] = rnd.Uint64() & mask
	}
	return g
}

// Xi evaluates the generator's ±1 variable on a prepared value.
func (g *Generator) Xi(p *Prep) int8 {
	var bit uint64
	if g.fam.kind == BCH {
		bit = g.sign ^
			uint64(bits.OnesCount64(g.seed[0]&p.words[0])) ^
			uint64(bits.OnesCount64(g.seed[1]&p.words[1]))
	} else {
		for j, m := range p.words {
			bit ^= uint64(bits.OnesCount64(g.seed[j] & m))
		}
	}
	if bit&1 != 0 {
		return -1
	}
	return 1
}

// XiValue evaluates ξ_v directly; it allocates a Prep and is intended
// for tests and one-off queries, not the stream hot path.
func (g *Generator) XiValue(v uint64) int8 {
	return g.Xi(g.fam.Prepare(v, nil))
}

// Family returns the family the generator belongs to.
func (g *Generator) Family() *Family { return g.fam }

// SeedWords returns a copy of the generator's seed (for memory
// accounting and persistence). For BCH the first word is the sign bit.
func (g *Generator) SeedWords() []uint64 {
	out := make([]uint64, 0, len(g.seed)+1)
	if g.fam.kind == BCH {
		out = append(out, g.sign)
	}
	return append(out, g.seed...)
}

// SameSeed reports whether two generators hold the same seed words —
// SeedWords(g) == SeedWords(o) — without copying them out.
func (g *Generator) SameSeed(o *Generator) bool {
	return g.sign == o.sign && slices.Equal(g.seed, o.seed)
}

// GeneratorFromWords reconstructs a generator from the words returned
// by SeedWords, for synopsis persistence.
func (f *Family) GeneratorFromWords(words []uint64) (*Generator, error) {
	want := f.words()
	if f.kind == BCH {
		want++
	}
	if len(words) != want {
		return nil, fmt.Errorf("xi: seed has %d words, family needs %d", len(words), want)
	}
	g := &Generator{fam: f}
	if f.kind == BCH {
		if words[0] > 1 {
			return nil, fmt.Errorf("xi: BCH sign word %d is not a bit", words[0])
		}
		g.sign = words[0]
		words = words[1:]
	}
	mask := uint64(1)<<uint(f.field.Degree()) - 1
	g.seed = make([]uint64, len(words))
	for i, w := range words {
		if w&^mask != 0 {
			return nil, fmt.Errorf("xi: seed word %d exceeds the field", i)
		}
		g.seed[i] = w
	}
	return g, nil
}

// MemoryBytes returns the memory footprint of the generator's seed in
// bytes, used for the paper's synopsis-size accounting.
func (g *Generator) MemoryBytes() int {
	n := len(g.seed) * 8
	if g.fam.kind == BCH {
		n += 8
	}
	return n
}

// Batch is a flattened view of many generators of one family, built
// for the per-pattern inner loop of stream processing (paper
// Algorithm 1): one prepared value updates all s1×s2 cells.
//
// Every ξ bit is GF(2)-linear in the prepared words: bit_c = sign_c ⊕
// ⊕_j parity(seed_j[c] & w_j), for BCH (words v, v³, plus the sign
// bit) and Poly (words Bit0MulMask(v^j), no sign bit) alike. So the
// bits of all cells at once — one bit per cell, packed 64 cells to a
// word — are the sign words XOR, for every prepared word j and every
// nibble position n, a table row T[j][n][nibble n of w_j]. Signs
// computes them with ⌈deg/4⌉ row XORs per prepared word, whatever the
// number of cells; AddSigns and its row-summing twins then read one
// bit per cell. For BCH at the default 175 cells over a degree-62
// field the tables take 2·16·16 rows of 3 words, 12 KB. They are
// stored by sign word, so Signs keeps each word of the result in a
// register across all its lookups.
//
// The tables are built on the first Signs call, not by NewBatch, so
// restoring a synopsis that is only merged or marshaled never pays for
// them. A Batch aliases nothing mutable: generator seeds are immutable
// after construction, so a Batch stays valid for the life of its
// generators and is safe for concurrent readers, the lazy build
// included.
type Batch struct {
	fam   *Family
	n     int
	signs []uint64   // BCH sign bit per generator; nil for Poly
	words [][]uint64 // words[j][c] = seed word j of generator c

	once sync.Once
	nw   int      // sign words per value: ⌈n/64⌉
	nib  int      // nibbles per prepared word: ⌈deg/4⌉
	base []uint64 // packed sign bits (zero for Poly)
	tab  []uint64 // tab[(k·len(words)·nib + j·nib+n)·16 + x] = word k of T[j][n][x]
}

// NewBatch flattens the given generators, which must all belong to the
// same family.
func NewBatch(gens []*Generator) (*Batch, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("xi: empty generator set")
	}
	fam := gens[0].fam
	b := &Batch{fam: fam, n: len(gens), words: make([][]uint64, fam.words()), nw: (len(gens) + 63) / 64}
	for j := range b.words {
		b.words[j] = make([]uint64, len(gens))
	}
	if fam.kind == BCH {
		b.signs = make([]uint64, len(gens))
	}
	for c, g := range gens {
		if g.fam != fam {
			return nil, fmt.Errorf("xi: generator %d belongs to a different family", c)
		}
		if b.signs != nil {
			b.signs[c] = g.sign
		}
		for j, w := range g.seed {
			b.words[j][c] = w
		}
	}
	return b, nil
}

// Len returns the number of generators in the batch.
func (b *Batch) Len() int { return b.n }

// SignWords returns the number of words Signs writes per value:
// ⌈Len/64⌉.
func (b *Batch) SignWords() int { return b.nw }

// build fills the sign tables by linearity: the basis row of prepared
// word j and bit i holds the cells whose seed word j has bit i set,
// and every other entry of a nibble table is the XOR of the basis rows
// of its set bits.
func (b *Batch) build() {
	nw, nib := b.nw, (b.fam.field.Degree()+3)/4
	b.nib = nib
	b.base = make([]uint64, nw)
	for c, sg := range b.signs {
		b.base[c>>6] |= (sg & 1) << uint(c&63)
	}
	groups := len(b.words) * nib
	b.tab = make([]uint64, nw*groups*16)
	for j, seeds := range b.words {
		for c, s := range seeds {
			for ; s != 0; s &= s - 1 {
				i := bits.TrailingZeros64(s)
				b.tab[((c>>6)*groups+j*nib+i/4)*16+1<<uint(i%4)] |= 1 << uint(c&63)
			}
		}
	}
	for g := 0; g < len(b.tab); g += 16 {
		blk := b.tab[g : g+16]
		for x := 3; x < 16; x++ {
			if low := x & -x; low != x {
				blk[x] = blk[low] ^ blk[x^low]
			}
		}
	}
}

// Signs writes the ξ sign bits of every generator on p into dst: bit
// c%64 of dst[c/64] is 1 where ξ_c(p) = −1. dst must have at least
// SignWords entries. Signs only reads the batch, so any number of
// goroutines may prepare values against one Batch concurrently.
//
//lint:hotpath
func (b *Batch) Signs(p *Prep, dst []uint64) {
	b.once.Do(b.build)
	per := len(b.words) * b.nib * 16
	for k := range dst[:b.nw] {
		dst[k] = b.base[k] ^ signWord(b.tab[k*per:(k+1)*per], p.words, b.nib)
	}
}

// signWord is one word of Signs: the XOR of one table entry per nibble
// of the prepared words, from the sign word's own table. It is not
// inlined so that its loop state stays in registers; inlined into
// Signs, the nibble and table offsets spill to the stack on every
// lookup.
//
//lint:hotpath
//go:noinline
func signWord(tab, words []uint64, nib int) (acc uint64) {
	g := 0
	for _, w := range words {
		for n := 0; n < nib; n++ {
			acc ^= tab[g+int(w&15)]
			w >>= 4
			g += 16
		}
	}
	return acc
}

// AddSigns adds delta·ξ_c to x[c] for every cell, reading the signs
// from bits written by Signs. The update is branchless: ξ is ±1 with
// equal probability, so a conditional here would mispredict half the
// time.
//
//lint:hotpath
func AddSigns(signs []uint64, delta int64, x []int64) {
	d2 := 2 * delta
	for lo := 0; lo < len(x); lo += 64 {
		w := signs[lo>>6]
		xs := x[lo:min(lo+64, len(x))]
		for c := range xs {
			xs[c] += delta - d2&-int64(w&1) // delta for ξ = +1, −delta for ξ = −1
			w >>= 1
		}
	}
}

// AddSignsRows is AddSigns fused with the reads top-k processing needs
// right after an arrival (paper Algorithm 4): in the same pass it
// stores each row's sum Σ ξ_c·x[c] over the updated counters in rows.
// Cells are taken in rows of len(x)/len(rows) consecutive cells.
//
//lint:hotpath
func AddSignsRows(signs []uint64, delta int64, x, rows []int64) {
	w, d2 := len(x)/len(rows), 2*delta
	var word uint64
	c := 0
	for i := range rows {
		var sum int64
		for end := c + w; c < end; c++ {
			if c&63 == 0 {
				word = signs[c>>6]
			}
			m := -int64(word & 1) // 0 for ξ = +1, −1 for ξ = −1
			word >>= 1
			y := x[c] + delta - d2&m
			x[c] = y
			sum += (y ^ m) - m
		}
		rows[i] = sum
	}
}

// SignedRows writes each row's sum Σ ξ_c·x[c] into rows, reading x
// only: the query-side twin of AddSignsRows, safe for concurrent
// readers of one frozen counter array.
//
//lint:hotpath
func SignedRows(signs []uint64, x, rows []int64) {
	w := len(x) / len(rows)
	var word uint64
	c := 0
	for i := range rows {
		var sum int64
		for end := c + w; c < end; c++ {
			if c&63 == 0 {
				word = signs[c>>6]
			}
			m := -int64(word & 1)
			word >>= 1
			sum += (x[c] ^ m) - m
		}
		rows[i] = sum
	}
}
