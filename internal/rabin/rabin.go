// Package rabin implements Rabin's fingerprinting method over GF(2)
// (paper §6.1). A byte string is interpreted as the coefficient vector
// of a polynomial over GF(2); its fingerprint is the residue modulo an
// irreducible polynomial chosen uniformly at random. Two distinct
// strings of total length n bits collide with probability at most
// about n / 2^(deg-1), so fingerprints of short sequences under a
// degree-31 (paper) or degree-61 (our default) modulus collide with
// negligible probability.
//
// SketchTree uses fingerprints as the one-dimensional mapping of
// (LPS, NPS) sequence pairs when the exact pairing function of package
// pairing would overflow machine words, and as the online hash(X) of
// node labels.
package rabin

import (
	"encoding/binary"
	"fmt"

	"sketchtree/internal/gf2"
)

// Fingerprinter computes fingerprints modulo a fixed irreducible
// polynomial. It is immutable after construction and safe for
// concurrent use.
type Fingerprinter struct {
	modulus uint64
	deg     int
	mask    uint64 // deg low bits
	top     uint   // deg - 8

	// tab[i][t] = t·x^(deg+8i) mod modulus: the byte-fold tables of the
	// field over the modulus (gf2.Field.FoldTables). tab[0] folds one
	// byte (pushByte); all eight fold eight bytes at once (Fingerprint's
	// slicing-by-8 step), as eight independent lookups instead of a
	// chain of eight dependent ones.
	tab *[8][256]uint64
}

// New returns a Fingerprinter for the given irreducible modulus of
// degree between 8 and 63. Its tables belong to the gf2.Field of the
// modulus, which gf2 caches per modulus, so the irreducibility test
// and the 16 KB of tables are paid once per process however many
// engines are built or restored over the same modulus.
func New(modulus uint64) (*Fingerprinter, error) {
	d := gf2.Deg(modulus)
	if d < 8 || d > 63 {
		return nil, fmt.Errorf("rabin: modulus degree %d out of range [8, 63]", d)
	}
	field, err := gf2.NewField(modulus)
	if err != nil {
		return nil, fmt.Errorf("rabin: %w", err)
	}
	return &Fingerprinter{modulus: modulus, deg: d, mask: 1<<uint(d) - 1, top: uint(d - 8), tab: field.FoldTables()}, nil
}

// MustNew is New that panics on error.
func MustNew(modulus uint64) *Fingerprinter {
	f, err := New(modulus)
	if err != nil {
		panic(err)
	}
	return f
}

// NewRandom constructs a Fingerprinter with a modulus of the given
// degree chosen uniformly at random from the irreducible polynomials,
// per Rabin's scheme.
func NewRandom(deg int, rnd interface{ Uint64() uint64 }) (*Fingerprinter, error) {
	if deg < 8 || deg > 63 {
		return nil, fmt.Errorf("rabin: degree %d out of range [8, 63]", deg)
	}
	return New(gf2.RandomIrreducible(deg, rnd))
}

// Degree returns the degree of the modulus; fingerprints are in
// [0, 2^Degree).
func (f *Fingerprinter) Degree() int { return f.deg }

// Modulus returns the irreducible polynomial in use.
func (f *Fingerprinter) Modulus() uint64 { return f.modulus }

// initial is the starting state: a leading 1 bit so that strings
// differing only by leading zero bytes (or by length) map to distinct
// polynomials.
const initial = 1

// pushByte folds one byte into the fingerprint state.
//
//lint:hotpath
func (f *Fingerprinter) pushByte(fp uint64, b byte) uint64 {
	return (fp<<8|uint64(b))&f.mask ^ f.tab[0][fp>>f.top]
}

// Fingerprint returns the fingerprint of data. It folds eight bytes
// per step: for the big-endian word B of the next eight bytes,
// fp·x^64 + B = x^deg·U + (B mod x^deg) with U = fp·x^(64-deg) +
// B/x^deg a 64-bit polynomial (fp < 2^deg), so the new state is
// B's low deg bits XOR one tab lookup per byte of U. The tail folds
// byte by byte; the result equals pushByte over every byte.
//
//lint:hotpath
func (f *Fingerprinter) Fingerprint(data []byte) uint64 {
	fp := uint64(initial)
	sh := 64 - uint(f.deg)
	for len(data) >= 8 {
		b := binary.BigEndian.Uint64(data)
		u := fp<<sh | b>>uint(f.deg)
		fp = b&f.mask ^
			f.tab[0][byte(u)] ^ f.tab[1][byte(u>>8)] ^ f.tab[2][byte(u>>16)] ^ f.tab[3][byte(u>>24)] ^
			f.tab[4][byte(u>>32)] ^ f.tab[5][byte(u>>40)] ^ f.tab[6][byte(u>>48)] ^ f.tab[7][byte(u>>56)]
		data = data[8:]
	}
	for _, b := range data {
		fp = f.pushByte(fp, b)
	}
	return fp
}

// FingerprintString returns the fingerprint of a string without
// allocating.
func (f *Fingerprinter) FingerprintString(s string) uint64 {
	fp := uint64(initial)
	for i := 0; i < len(s); i++ {
		fp = f.pushByte(fp, s[i])
	}
	return fp
}

// Hash is an incremental fingerprint accumulator. The zero Hash is not
// valid; obtain one from Fingerprinter.NewHash.
type Hash struct {
	f  *Fingerprinter
	fp uint64
}

// NewHash returns a fresh incremental accumulator.
func (f *Fingerprinter) NewHash() *Hash {
	return &Hash{f: f, fp: initial}
}

// Reset returns the accumulator to its initial state.
func (h *Hash) Reset() { h.fp = initial }

// Write folds data into the running fingerprint. It never fails; the
// error is always nil (io.Writer compatibility).
func (h *Hash) Write(p []byte) (int, error) {
	fp := h.fp
	for _, b := range p {
		fp = h.f.pushByte(fp, b)
	}
	h.fp = fp
	return len(p), nil
}

// WriteString folds a string into the running fingerprint.
func (h *Hash) WriteString(s string) {
	fp := h.fp
	for i := 0; i < len(s); i++ {
		fp = h.f.pushByte(fp, s[i])
	}
	h.fp = fp
}

// WriteByte folds one byte into the running fingerprint.
func (h *Hash) WriteByte(b byte) error {
	h.fp = h.f.pushByte(h.fp, b)
	return nil
}

// WriteUvarint folds a varint-encoded unsigned integer into the
// running fingerprint, preserving self-delimiting framing.
func (h *Hash) WriteUvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	h.Write(buf[:n]) //lint:allow errflow Hash.Write never fails; the error exists for io.Writer conformance
}

// Sum64 returns the current fingerprint.
func (h *Hash) Sum64() uint64 { return h.fp }
