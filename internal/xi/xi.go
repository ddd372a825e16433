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
// multiplication by z (gf2.Field.Bit0MulMask).
package xi

import (
	"fmt"
	"math/bits"
	"slices"

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

// Batch is a flattened view of many generators of one family, laid out
// word-major: words[j][c] is seed word j of generator c, and signs[c]
// is generator c's BCH sign bit. Evaluating one prepared value against
// all generators then walks contiguous arrays instead of chasing one
// pointer per generator — the s1×s2-cell sketch update is the
// per-pattern inner loop of stream processing (paper Algorithm 1), so
// this layout is what makes "one ξ preparation, all counters" cheap.
//
// A Batch aliases nothing mutable: generator seeds are immutable after
// construction, so a Batch built once stays valid for the life of its
// generators and is safe for concurrent readers.
type Batch struct {
	fam   *Family
	n     int
	signs []uint64   // BCH sign bit per generator; nil for Poly
	words [][]uint64 // words[j][c] = seed word j of generator c
}

// NewBatch flattens the given generators, which must all belong to the
// same family.
func NewBatch(gens []*Generator) (*Batch, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("xi: empty generator set")
	}
	fam := gens[0].fam
	b := &Batch{fam: fam, n: len(gens), words: make([][]uint64, fam.words())}
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

// AddInto adds delta·ξ_c(p) to x[c] for every generator c in one pass.
// x must have exactly Len entries. The update is branchless: ξ is ±1
// with equal probability, so a conditional here would mispredict half
// the time.
func (b *Batch) AddInto(p *Prep, delta int64, x []int64) {
	x = x[:b.n]
	if b.fam.kind == BCH {
		w0, w1 := p.words[0], p.words[1]
		s0 := b.words[0][:b.n]
		s1 := b.words[1][:b.n]
		signs := b.signs[:b.n]
		for c := range x {
			bit := signs[c] ^
				uint64(bits.OnesCount64(s0[c]&w0)) ^
				uint64(bits.OnesCount64(s1[c]&w1))
			m := -int64(bit & 1)
			x[c] += (delta ^ m) - m // delta when bit even, -delta when odd
		}
		return
	}
	for c := range x {
		var bit uint64
		for j, w := range p.words {
			bit ^= uint64(bits.OnesCount64(b.words[j][c] & w))
		}
		m := -int64(bit & 1)
		x[c] += (delta ^ m) - m
	}
}

// AddIntoRows is AddInto fused with the reads top-k processing needs
// right after an arrival (paper Algorithm 4). In the same pass it
// stores each cell's sign mask — 0 for ξ = +1, −1 for ξ = −1 — in
// masks, and each row's sum Σ ξ_c·x[c] over the updated counters in
// rows. Cells are taken in rows of Len/len(rows) consecutive
// generators; x and masks must have exactly Len entries. Later writes
// of the same value then go through AddMasked, and later estimates
// through the row sums, without evaluating ξ again.
//
//lint:hotpath
func (b *Batch) AddIntoRows(p *Prep, delta int64, x, masks, rows []int64) {
	w := b.n / len(rows)
	for i := range rows {
		lo, hi := i*w, i*w+w
		xr, mr := x[lo:hi], masks[lo:hi]
		mr = mr[:len(xr)]
		b.masksInto(p, lo, mr)
		var sum int64
		for c, m := range mr {
			y := xr[c] + (delta ^ m) - m
			xr[c] = y
			sum += (y ^ m) - m
		}
		rows[i] = sum
	}
}

// RowsInto writes each row's sum Σ ξ_c·x[c] for the prepared value
// into rows, reading x only: the query-side twin of AddIntoRows, safe
// for concurrent readers of one frozen counter array. masks is
// Len-entry scratch.
//
//lint:hotpath
func (b *Batch) RowsInto(p *Prep, x, masks, rows []int64) {
	w := b.n / len(rows)
	for i := range rows {
		lo, hi := i*w, i*w+w
		xr, mr := x[lo:hi], masks[lo:hi]
		mr = mr[:len(xr)]
		b.masksInto(p, lo, mr)
		var sum int64
		for c, m := range mr {
			sum += (xr[c] ^ m) - m
		}
		rows[i] = sum
	}
}

// masksInto writes the sign masks on p of the len(dst) generators
// from lo on into dst. One popcount per cell suffices: the parity of a
// sum of popcounts is the parity of the popcount of the XOR of its
// operands.
//
//lint:hotpath
func (b *Batch) masksInto(p *Prep, lo int, dst []int64) {
	if b.fam.kind == BCH {
		w0, w1 := p.words[0], p.words[1]
		signs := b.signs[lo : lo+len(dst)]
		s0 := b.words[0][lo : lo+len(signs)]
		s1 := b.words[1][lo : lo+len(signs)]
		for c, sg := range signs {
			bit := sg ^ uint64(bits.OnesCount64(s0[c]&w0^s1[c]&w1))
			dst[c] = -int64(bit & 1)
		}
		return
	}
	for c := range dst {
		var acc uint64
		for j, w := range p.words {
			acc ^= b.words[j][lo+c] & w
		}
		dst[c] = -int64(bits.OnesCount64(acc) & 1)
	}
}

// AddMasked adds delta·ξ_c to x[c] for every cell, reading the signs
// from masks written by AddIntoRows for the same value: a write of a
// value already evaluated once, with no popcount.
//
//lint:hotpath
func AddMasked(masks []int64, delta int64, x []int64) {
	masks = masks[:len(x)]
	for c, m := range masks {
		x[c] += (delta ^ m) - m
	}
}
