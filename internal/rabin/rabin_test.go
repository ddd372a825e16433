package rabin

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"sketchtree/internal/gf2"
)

const (
	mod31 = 1<<31 | 1<<3 | 1 // x^31 + x^3 + 1, irreducible
	mod63 = 1<<63 | 1<<1 | 1 // x^63 + x + 1, irreducible
)

// fingerprintNaive reduces the data polynomial bit by bit: fp = fp*x +
// bit (mod m), starting from the leading 1.
func fingerprintNaive(data []byte, m uint64) uint64 {
	d := gf2.Deg(m)
	fp := uint64(1)
	push := func(bit uint64) {
		fp <<= 1
		fp |= bit
		if fp&(1<<uint(d)) != 0 {
			fp ^= m
		}
	}
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			push(uint64(b>>uint(i)) & 1)
		}
	}
	return fp
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0b101); err == nil {
		t.Error("reducible modulus must be rejected")
	}
	if _, err := New(0b1011); err == nil {
		t.Error("degree 3 must be rejected (below 8)")
	}
	if _, err := New(mod31); err != nil {
		t.Errorf("degree-31 trinomial rejected: %v", err)
	}
	f := MustNew(mod63)
	if f.Degree() != 63 || f.Modulus() != mod63 {
		t.Error("accessors wrong")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew of bad modulus must panic")
		}
	}()
	MustNew(0b101)
}

func TestNewRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	f, err := NewRandom(31, rng)
	if err != nil {
		t.Fatal(err)
	}
	if f.Degree() != 31 || !gf2.Irreducible(f.Modulus()) {
		t.Error("NewRandom produced bad fingerprinter")
	}
	if _, err := NewRandom(7, rng); err == nil {
		t.Error("degree 7 must be rejected")
	}
	if _, err := NewRandom(64, rng); err == nil {
		t.Error("degree 64 must be rejected")
	}
}

func TestQuickMatchesNaive(t *testing.T) {
	for _, m := range []uint64{mod31, mod63, gf2.DefaultModulus(61)} {
		f := MustNew(m)
		q := func(data []byte) bool {
			return f.Fingerprint(data) == fingerprintNaive(data, m)
		}
		if err := quick.Check(q, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("modulus %#x: %v", m, err)
		}
	}
}

func TestFingerprintRange(t *testing.T) {
	f := MustNew(mod31)
	q := func(data []byte) bool {
		return f.Fingerprint(data) < 1<<31
	}
	if err := quick.Check(q, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLeadingZerosDistinguished(t *testing.T) {
	f := MustNew(mod63)
	a := f.Fingerprint([]byte{'a'})
	b := f.Fingerprint([]byte{0, 'a'})
	c := f.Fingerprint([]byte{0, 0, 'a'})
	empty := f.Fingerprint(nil)
	if a == b || b == c || a == c {
		t.Error("leading zero bytes must change the fingerprint")
	}
	if empty == a || empty == f.Fingerprint([]byte{0}) {
		t.Error("empty string must be distinguished")
	}
}

func TestFingerprintStringMatchesBytes(t *testing.T) {
	f := MustNew(mod63)
	q := func(s string) bool {
		return f.FingerprintString(s) == f.Fingerprint([]byte(s))
	}
	if err := quick.Check(q, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIncrementalMatchesOneShot(t *testing.T) {
	f := MustNew(mod63)
	q := func(a, b []byte, s string) bool {
		h := f.NewHash()
		h.Write(a)
		h.WriteString(s)
		h.Write(b)
		all := append(append(append([]byte{}, a...), s...), b...)
		return h.Sum64() == f.Fingerprint(all)
	}
	if err := quick.Check(q, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHashReset(t *testing.T) {
	f := MustNew(mod31)
	h := f.NewHash()
	h.WriteString("hello")
	first := h.Sum64()
	h.Reset()
	h.WriteString("hello")
	if h.Sum64() != first {
		t.Error("Reset must restore the initial state")
	}
}

func TestWriteByteAndUvarint(t *testing.T) {
	f := MustNew(mod31)
	h1 := f.NewHash()
	h1.WriteByte('x')
	h2 := f.NewHash()
	h2.Write([]byte{'x'})
	if h1.Sum64() != h2.Sum64() {
		t.Error("WriteByte disagrees with Write")
	}
	// Varints are self-delimiting: (1, 300) and (300, 1) must differ.
	ha := f.NewHash()
	ha.WriteUvarint(1)
	ha.WriteUvarint(300)
	hb := f.NewHash()
	hb.WriteUvarint(300)
	hb.WriteUvarint(1)
	if ha.Sum64() == hb.Sum64() {
		t.Error("varint order must matter")
	}
}

func TestCollisionRateEmpirical(t *testing.T) {
	// 20k random 16-byte strings under a degree-61 modulus: expect no
	// collisions (birthday bound ~ 2e8/2^61 ≈ 1e-10).
	f := MustNew(gf2.DefaultModulus(61))
	rng := rand.New(rand.NewPCG(11, 13))
	seen := make(map[uint64][16]byte, 20000)
	for i := 0; i < 20000; i++ {
		var buf [16]byte
		for j := 0; j < 16; j += 8 {
			v := rng.Uint64()
			for k := 0; k < 8; k++ {
				buf[j+k] = byte(v >> uint(8*k))
			}
		}
		fp := f.Fingerprint(buf[:])
		if prev, ok := seen[fp]; ok && prev != buf {
			t.Fatalf("collision between %x and %x", prev, buf)
		}
		seen[fp] = buf
	}
}

func TestDistinctModuliDisagree(t *testing.T) {
	f1 := MustNew(mod31)
	f2 := MustNew(uint64(gf2.DefaultModulus(31)))
	if f1.Modulus() == f2.Modulus() {
		t.Skip("moduli happen to coincide")
	}
	diff := 0
	for _, s := range []string{"a", "ab", "abc", "abcd", "tree", "sketch"} {
		if f1.FingerprintString(s) != f2.FingerprintString(s) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different moduli should produce different fingerprints")
	}
}

func BenchmarkFingerprint64B(b *testing.B) {
	f := MustNew(gf2.DefaultModulus(61))
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i * 37)
	}
	b.SetBytes(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = f.Fingerprint(data)
	}
}

var sink uint64

// byteLoop is the reference fold: pushByte over every byte, the
// definition the slicing-by-8 Fingerprint must reproduce.
func byteLoop(f *Fingerprinter, data []byte) uint64 {
	fp := uint64(initial)
	for _, b := range data {
		fp = f.pushByte(fp, b)
	}
	return fp
}

// The sliced Fingerprint folds eight bytes per step; it must equal the
// byte-at-a-time loop at every modulus degree and at every length
// around the eight-byte boundaries.
func TestSlicedFingerprintMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	data := make([]byte, 80)
	for deg := 8; deg <= 63; deg++ {
		f := MustNew(gf2.RandomIrreducible(deg, rng))
		for trial := 0; trial < 4; trial++ {
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			if trial == 1 {
				for i := range data {
					data[i] = 0xff
				}
			}
			for n := 0; n <= len(data); n++ {
				if got, want := f.Fingerprint(data[:n]), byteLoop(f, data[:n]); got != want {
					t.Fatalf("degree %d, %d bytes: sliced %#x, byte loop %#x", deg, n, got, want)
				}
			}
		}
	}
}

// Fingerprinters of one modulus share the cached field's tables, and
// tab[0] is the field's own byte-fold table.
func TestNewSharesFingerprinter(t *testing.T) {
	f1, f2 := MustNew(mod31), MustNew(mod31)
	if f1.tab != f2.tab || f1.tab != gf2.MustField(mod31).FoldTables() {
		t.Error("New of one modulus must share the field's fold tables")
	}
}

func FuzzFingerprint(f *testing.F) {
	f.Add(uint8(61), []byte("abc"))
	f.Add(uint8(8), []byte{0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(uint8(63), make([]byte, 17))
	f.Fuzz(func(t *testing.T, deg uint8, data []byte) {
		d := 8 + int(deg)%56
		fp := MustNew(gf2.DefaultModulus(d))
		if got, want := fp.Fingerprint(data), byteLoop(fp, data); got != want {
			t.Fatalf("degree %d, %d bytes: sliced %#x, byte loop %#x", d, len(data), got, want)
		}
		if got, want := fp.Fingerprint(data), fingerprintNaive(data, fp.Modulus()); got != want {
			t.Fatalf("degree %d, %d bytes: %#x, bitwise reference %#x", d, len(data), got, want)
		}
	})
}
