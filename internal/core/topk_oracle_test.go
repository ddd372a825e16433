package core

import (
	"container/heap"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"sketchtree/internal/ams"
	"sketchtree/internal/enum"
	"sketchtree/internal/topk"
	"sketchtree/internal/tree"
	"sketchtree/internal/vstream"
)

// refTracker is the reference Algorithm 4 (paper §5.2) in its
// step-by-step form: add v's deleted instances back, re-estimate v
// from the sketch with the per-generator estimator, then delete the
// estimate — three ξ evaluations of v, plus one for an evicted value.
// topk.Tracker.Process fuses these steps; the oracle test below holds
// it to this algorithm occurrence by occurrence.
type refTracker struct {
	k       int
	sketch  *ams.Sketch
	entries map[uint64]*refEntry
	heap    refHeap

	promotions, evictions, deletedMass int64

	// Coverage counters: occurrences of a tracked value, and evictions
	// where several entries shared the minimum frequency.
	readmits, tiedEvictions int
}

type refEntry struct {
	value uint64
	freq  int64
	pos   int
}

type refHeap []*refEntry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].freq < h[j].freq }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].pos = i; h[j].pos = j }
func (h *refHeap) Push(x interface{}) { e := x.(*refEntry); e.pos = len(*h); *h = append(*h, e) }
func (h *refHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// process runs Algorithm 4 for one arrival of v; the sketch already
// holds the arrival.
func (t *refTracker) process(v uint64) {
	if e, ok := t.entries[v]; ok {
		t.readmits++
		t.sketch.Update(v, e.freq) // lines 1–7: add the deleted instances back
		heap.Remove(&t.heap, e.pos)
		delete(t.entries, v)
		t.deletedMass -= e.freq
	}
	est := int64(math.Round(t.sketch.EstimateCount(v, nil))) // line 8
	if est <= 0 {
		return
	}
	if len(t.entries) >= t.k {
		if est <= t.heap[0].freq {
			return
		}
		ties := 0
		for _, e := range t.heap {
			if e.freq == t.heap[0].freq {
				ties++
			}
		}
		if ties > 1 {
			t.tiedEvictions++
		}
		min := heap.Pop(&t.heap).(*refEntry) // lines 10–13: evict the minimum
		delete(t.entries, min.value)
		t.sketch.Update(min.value, min.freq)
		t.evictions++
		t.deletedMass -= min.freq
	}
	e := &refEntry{value: v, freq: est} // lines 14–18: delete the estimate
	heap.Push(&t.heap, e)
	t.entries[v] = e
	t.sketch.Update(v, -est)
	t.promotions++
	t.deletedMass += est
}

func (t *refTracker) churn() topk.Churn {
	c := topk.Churn{
		Promotions:  t.promotions,
		Evictions:   t.evictions,
		Residency:   len(t.entries),
		DeletedMass: t.deletedMass,
	}
	if len(t.heap) > 0 {
		c.MinFreq = t.heap[0].freq
	}
	return c
}

func (t *refTracker) sortedEntries() []topk.ValueFreq {
	out := make([]topk.ValueFreq, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, topk.ValueFreq{Value: e.value, Freq: e.freq})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Freq != out[j].Freq {
			return out[i].Freq > out[j].Freq
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// skewedTree draws a small random tree over a skewed label alphabet,
// so a few patterns dominate the stream and many trail close behind:
// tracked values recur (readmissions), and the light tail keeps
// displacing the minimum, often among equal frequencies.
func skewedTree(rng *rand.Rand) *tree.Tree {
	labels := []string{"A", "A", "A", "A", "B", "B", "C", "D", "E", "F"}
	nodes := make([]*tree.Node, 2+rng.IntN(5))
	for i := range nodes {
		nodes[i] = tree.T(labels[rng.IntN(len(labels))])
	}
	for i := 1; i < len(nodes); i++ {
		nodes[rng.IntN(i)].AddChild(nodes[i])
	}
	return tree.NewTree(nodes[0])
}

// TestTopKProcessMatchesReference drives the engine and the reference
// Algorithm 4 over the same skewed stream, sharing ξ seeds and the
// top-k sampling sequence, and requires after every pattern occurrence
// equal counters of the virtual stream it routed to, equal tracked
// lists, and equal churn: the fused step is the three-pass algorithm,
// bit for bit, for both ξ families and with and without sampling.
func TestTopKProcessMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name         string
		independence int
		prob         float64
	}{
		{"BCH/p=1", 4, 1},
		{"BCH/p=0.5", 4, 0.5},
		{"Poly6/p=1", 6, 1},
		{"Poly6/p=0.5", 6, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.MaxPatternEdges = 2
			cfg.S1, cfg.S2 = 6, 4 // few cells: noisy estimates, lots of churn
			cfg.VirtualStreams = 3
			cfg.TopK = 3
			cfg.TopKProbability = tc.prob
			cfg.Independence = tc.independence
			cfg.TrackExact = false
			e := mustEngine(t, cfg)
			// Engine and reference draw their sampling decisions from
			// twin generators.
			e.rng = rand.New(rand.NewPCG(91, 17))
			refRng := rand.New(rand.NewPCG(91, 17))

			ref, err := vstream.New(e.seeds, cfg.VirtualStreams)
			if err != nil {
				t.Fatal(err)
			}
			refs := make([]*refTracker, cfg.VirtualStreams)
			for i := range refs {
				refs[i] = &refTracker{k: cfg.TopK, sketch: ref.Sketch(i), entries: map[uint64]*refEntry{}}
			}
			occ := 0
			e.SetObserver(func(v uint64, _ *enum.Pattern) {
				occ++
				r := ref.Route(v)
				ref.Update(v, 1)
				if tc.prob >= 1 || refRng.Float64() < tc.prob {
					refs[r].process(v)
				}
				got, want := e.streams.Sketch(r).Counters(), ref.Sketch(r).Counters()
				if !slices.Equal(got, want) {
					t.Fatalf("occurrence %d (value %#x, stream %d): counters %v, reference %v", occ, v, r, got, want)
				}
				if got, want := e.trackers[r].Entries(), refs[r].sortedEntries(); !slices.Equal(got, want) {
					t.Fatalf("occurrence %d (value %#x, stream %d): entries %v, reference %v", occ, v, r, got, want)
				}
				if got, want := e.trackers[r].Churn(), refs[r].churn(); got != want {
					t.Fatalf("occurrence %d (value %#x, stream %d): churn %+v, reference %+v", occ, v, r, got, want)
				}
			})
			rng := rand.New(rand.NewPCG(5, 8))
			for i := 0; i < 400; i++ {
				if err := e.AddTree(skewedTree(rng)); err != nil {
					t.Fatal(err)
				}
			}
			var readmits, evictions, ties int
			for i, rt := range refs {
				readmits += rt.readmits
				evictions += int(rt.evictions)
				ties += rt.tiedEvictions
				if !slices.Equal(e.streams.Sketch(i).Counters(), ref.Sketch(i).Counters()) {
					t.Fatalf("stream %d counters diverged by the end", i)
				}
			}
			t.Logf("%d occurrences: %d readmissions, %d evictions, %d among tied minimums", occ, readmits, evictions, ties)
			if readmits == 0 || evictions == 0 || ties == 0 {
				t.Fatalf("stream too tame: %d readmissions, %d evictions, %d tied evictions; want all > 0", readmits, evictions, ties)
			}
		})
	}
}
