package core

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"sketchtree/internal/enum"
	"sketchtree/internal/prufer"
	"sketchtree/internal/tree"
)

// randomLabeledTree builds a random tree of n nodes with a small
// alphabet, so enumerated patterns share labels and structure.
func randomLabeledTree(rng *rand.Rand, n int) *tree.Node {
	alphabet := []string{"A", "B", "C", "DD", ""}
	nodes := make([]*tree.Node, n)
	for i := range nodes {
		nodes[i] = tree.New(alphabet[rng.IntN(len(alphabet))])
	}
	for i := 1; i < n; i++ {
		nodes[rng.IntN(i)].AddChild(nodes[i])
	}
	return nodes[0]
}

// TestPatternEncoderMatchesPrufer pins the byte-for-byte identity the
// hot path relies on: the direct pattern encoder must produce exactly
// prufer.OfNode(p.ToTree()).Encode for every enumerated pattern —
// otherwise fingerprints (and therefore the whole synopsis) diverge
// from the materializing path.
func TestPatternEncoderMatchesPrufer(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 4))
	var pe patternEncoder
	var buf []byte
	for trial := 0; trial < 20; trial++ {
		root := randomLabeledTree(rng, 3+rng.IntN(30))
		en, err := enum.NewEnumerator(4)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		err = en.ForEach(root, func(p *enum.Pattern) error {
			buf = pe.encode(p, buf[:0])
			want := prufer.OfNode(p.ToTree()).Encode(nil)
			if !bytes.Equal(buf, want) {
				t.Fatalf("trial %d pattern %s:\n got %x\nwant %x", trial, p, buf, want)
			}
			checked++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if checked == 0 {
			t.Fatalf("trial %d enumerated no patterns", trial)
		}
	}
}

// TestPatternValueMatchesPatternValue checks the engine-level
// consequence: every value PrepareTree computes for an occurrence p is
// PatternValue(p.ToTree()).
func TestPatternValueMatchesPatternValue(t *testing.T) {
	e := mustEngine(t, testConfig())
	rng := rand.New(rand.NewPCG(5, 6))
	root := randomLabeledTree(rng, 20)
	var p Prepared
	if err := e.PrepareTree(tree.NewTree(root), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.vals) == 0 {
		t.Fatal("prepared no occurrences")
	}
	for i, pat := range p.pats {
		if got, want := p.vals[i], e.PatternValue(pat.ToTree()); got != want {
			t.Fatalf("pattern %s: prepared value %d, PatternValue %d", pat, got, want)
		}
	}
}
