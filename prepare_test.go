package sketchtree

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"sketchtree/internal/datagen"
)

// treebankXML renders n TREEBANK datagen trees as XML documents.
func treebankXML(t *testing.T, seed uint64, n int) []string {
	t.Helper()
	src := datagen.Treebank(seed, n)
	var docs []string
	for {
		tr, ok := src.Next()
		if !ok {
			return docs
		}
		var buf bytes.Buffer
		if err := tr.Root.WriteXML(&buf); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, buf.String())
	}
}

// Writers prepare outside Safe.mu and apply under it. However their
// trees interleave with each other and with publishes — snapshot
// refreshes, window advances and rebuilds — the synopsis must be
// byte-identical to one engine fed the same trees sequentially: top-k
// is off, so the counters are sums and arrival order cannot matter.
// Run with -race.
func TestSafeParallelWritersBitIdentical(t *testing.T) {
	cfg := testConfig()
	docs := treebankXML(t, 3, 160)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := ref.AddXML(strings.NewReader(d)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	for _, mode := range []string{"locked", "snapshot", "window"} {
		t.Run(mode, func(t *testing.T) {
			s, err := NewSafe(cfg)
			if err != nil {
				t.Fatal(err)
			}
			switch mode {
			case "snapshot":
				err = s.EnableSnapshots(SnapshotPolicy{EveryTrees: 7})
			case "window":
				// Enough slices that no advance below expires a tree.
				err = s.EnableWindow(WindowPolicy{Slices: 64, RefreshEveryTrees: 9})
			}
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			done := make(chan struct{})
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(docs); i += writers {
						var err error
						if i%2 == 0 {
							err = s.AddXML(strings.NewReader(docs[i]))
						} else {
							var tr *Tree
							if tr, err = ParseXMLString(docs[i]); err == nil {
								err = s.AddTree(tr)
							}
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			publisher := make(chan struct{})
			go func() {
				defer close(publisher)
				for n := 0; ; n++ {
					select {
					case <-done:
						return
					default:
					}
					var err error
					switch {
					case mode == "snapshot":
						err = s.RefreshSnapshot()
					case mode == "window" && n < 40:
						err = s.AdvanceWindow()
					case mode == "window":
						err = s.RefreshWindow()
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
			close(done)
			<-publisher
			if mode == "window" {
				if err := s.RefreshWindow(); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %d writers gave %d synopsis bytes unequal to the sequential engine's %d", mode, writers, len(got), len(want))
			}
		})
	}
}

// Steady-state Safe.AddTree allocates nothing: the prepare scratch
// comes from Safe's pool and the apply step writes existing counters.
func TestSafeAddTreeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool drops entries at random, so pooled Get may allocate")
	}
	s, err := NewSafe(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	docs := treebankXML(t, 5, 8)
	trees := make([]*Tree, len(docs))
	for i, d := range docs {
		if trees[i], err = ParseXMLString(d); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 5; r++ { // warm the pooled scratch on every tree
		for _, tr := range trees {
			if err := s.AddTree(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.AddTree(trees[i%len(trees)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Safe.AddTree allocates %.2f times per tree, want 0", allocs)
	}
}
