package sketchtree

// One benchmark per table and figure of the paper's evaluation (§7),
// plus ablation benches for the design choices DESIGN.md calls out
// (virtual streams, top-k deletion, ξ family, 1-D mapping). Benches
// run the experiment harness at small scale — the same code
// cmd/experiments runs at medium/paper scale — and report the figures'
// headline quantities as custom metrics (relerr% = average relative
// error ×100, patterns = pattern occurrences, KB = synopsis size).

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sketchtree/internal/ams"
	"sketchtree/internal/core"
	"sketchtree/internal/datagen"
	"sketchtree/internal/experiments"
	"sketchtree/internal/gf2"
	"sketchtree/internal/pairing"
	"sketchtree/internal/prufer"
	"sketchtree/internal/rabin"
	"sketchtree/internal/tree"
	"sketchtree/internal/xi"
)

// benchScale trims the small scale further so the full bench suite
// stays in the minutes range.
func benchScale() experiments.Scale {
	sc := experiments.ScaleSmall()
	sc.TreebankTrees = 250
	sc.DBLPTrees = 500
	sc.Runs = 1
	sc.QueriesPerRange = 8
	sc.SumQueries = 60
	sc.ProductQueries = 40
	sc.TopKsTreebank = []int{10, 50}
	sc.TopKsDBLP = []int{1, 25}
	return sc
}

var (
	bundleOnce sync.Once
	tbBundle   *experiments.Bundle
	dbBundle   *experiments.Bundle
	bundleErr  error
)

func bundles(b *testing.B) (*experiments.Bundle, *experiments.Bundle) {
	b.Helper()
	bundleOnce.Do(func() {
		sc := benchScale()
		tbBundle, bundleErr = experiments.Prepare(sc, "TREEBANK")
		if bundleErr != nil {
			return
		}
		dbBundle, bundleErr = experiments.Prepare(sc, "DBLP")
	})
	if bundleErr != nil {
		b.Fatal(bundleErr)
	}
	return tbBundle, dbBundle
}

// --- Table 1 ---

func BenchmarkTable1DatasetStats(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tb, db := bundles(b)
		rowT := experiments.Table1(tb, sc)
		rowD := experiments.Table1(db, sc)
		b.ReportMetric(float64(rowT.DistinctPatterns), "tb-distinct")
		b.ReportMetric(float64(rowD.DistinctPatterns), "dblp-distinct")
		b.ReportMetric(float64(rowT.TotalPatterns), "tb-patterns")
	}
}

// --- Figure 8 ---

func BenchmarkFigure8WorkloadGeneration(b *testing.B) {
	tb, db := bundles(b)
	for i := 0; i < b.N; i++ {
		rt := experiments.Figure8(tb)
		rd := experiments.Figure8(db)
		n := 0
		for _, c := range rt.Counts {
			n += c
		}
		for _, c := range rd.Counts {
			n += c
		}
		b.ReportMetric(float64(n), "queries")
	}
}

// --- Figure 9 ---

func BenchmarkFigure9aEnumTreeTime(b *testing.B) {
	tb, _ := bundles(b)
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure9(tb, sc, tb.K)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(float64(last.Patterns)/last.Seconds, "patterns/s")
	}
}

func BenchmarkFigure9bEnumTreePatterns(b *testing.B) {
	tb, _ := bundles(b)
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure9(tb, sc, tb.K)
		if err != nil {
			b.Fatal(err)
		}
		// The figure's series: patterns generated per k; report the
		// growth factor from k=1 to k=max.
		b.ReportMetric(float64(pts[len(pts)-1].Patterns), "patterns@kmax")
		b.ReportMetric(float64(pts[len(pts)-1].Patterns)/float64(pts[0].Patterns), "growth")
	}
}

// --- Figure 10 ---

func meanErr(rows [][]float64) float64 {
	s, n := 0.0, 0
	for _, row := range rows {
		for _, e := range row {
			s += e
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

func errorSweepBench(b *testing.B, dataset string, s1 int, topks []int) {
	tb, db := bundles(b)
	bundle := tb
	if dataset == "DBLP" {
		bundle = db
	}
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ErrorSweep(bundle, sc, s1, topks)
		if err != nil {
			b.Fatal(err)
		}
		// First and last top-k columns: the figure's storyline is the
		// error dropping as top-k grows.
		first, last := res.AvgRelErr[0], res.AvgRelErr[len(res.AvgRelErr)-1]
		b.ReportMetric(meanErr([][]float64{first})*100, "relerr%@topk-min")
		b.ReportMetric(meanErr([][]float64{last})*100, "relerr%@topk-max")
		b.ReportMetric(float64(res.MemoryBytes[len(res.MemoryBytes)-1])/1024, "KB")
	}
}

func BenchmarkFigure10aTreebankS1_25(b *testing.B) {
	errorSweepBench(b, "TREEBANK", 25, benchScale().TopKsTreebank)
}

func BenchmarkFigure10bTreebankS1_50(b *testing.B) {
	errorSweepBench(b, "TREEBANK", 50, benchScale().TopKsTreebank)
}

func BenchmarkFigure10cDBLPS1_50(b *testing.B) {
	errorSweepBench(b, "DBLP", 50, benchScale().TopKsDBLP)
}

func BenchmarkFigure10dDBLPS1_75(b *testing.B) {
	errorSweepBench(b, "DBLP", 75, benchScale().TopKsDBLP)
}

// --- Figures 11 and 12 ---

func BenchmarkFigure11SumProductWorkloads(b *testing.B) {
	tb, _ := bundles(b)
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		// The histograms of Figure 11 fall out of the sweeps' workload
		// generation; a single-top-k sweep regenerates both.
		sum, err := experiments.SumSweep(tb, sc, 25, []int{10})
		if err != nil {
			b.Fatal(err)
		}
		prod, err := experiments.ProductSweep(tb, sc, 25, []int{10})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, h := range sum.Histogram {
			n += h
		}
		for _, h := range prod.Histogram {
			n += h
		}
		b.ReportMetric(float64(n), "queries")
	}
}

func BenchmarkFigure12SumEstimation(b *testing.B) {
	tb, _ := bundles(b)
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.SumSweep(tb, sc, 25, sc.TopKsTreebank)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meanErr(res.AvgRelErr[:1])*100, "relerr%@topk-min")
		b.ReportMetric(meanErr(res.AvgRelErr[len(res.AvgRelErr)-1:])*100, "relerr%@topk-max")
	}
}

func BenchmarkFigure12ProductEstimation(b *testing.B) {
	tb, _ := bundles(b)
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ProductSweep(tb, sc, 25, sc.TopKsTreebank)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meanErr(res.AvgRelErr[:1])*100, "relerr%@topk-min")
		b.ReportMetric(meanErr(res.AvgRelErr[len(res.AvgRelErr)-1:])*100, "relerr%@topk-max")
	}
}

// --- §7.6/§7.7 processing cost ---

func BenchmarkProcessingCostVsS1(b *testing.B) {
	tb, _ := bundles(b)
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.CostSweep(tb, sc, [][2]int{{25, 10}, {50, 10}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[1].Seconds/pts[0].Seconds, "s1-cost-ratio")
	}
}

func BenchmarkProcessingCostVsTopK(b *testing.B) {
	tb, _ := bundles(b)
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.CostSweep(tb, sc, [][2]int{{25, 10}, {25, 100}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((pts[1].Seconds/pts[0].Seconds-1)*100, "topk-overhead%")
	}
}

// --- Ablations ---

// Virtual streams (§5.3): identical stream and budget, p=1 vs p=59.
func BenchmarkAblationVirtualStreams(b *testing.B) {
	tb, _ := bundles(b)
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		one := sc
		one.VirtualStreams = 1
		resOne, err := experiments.ErrorSweep(tb, one, 25, []int{1})
		if err != nil {
			b.Fatal(err)
		}
		resMany, err := experiments.ErrorSweep(tb, sc, 25, []int{1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meanErr(resOne.AvgRelErr)*100, "relerr%@p=1")
		b.ReportMetric(meanErr(resMany.AvgRelErr)*100, "relerr%@p=59")
	}
}

// Top-k deletion (§5.2): same sketch budget with and without tracking.
func BenchmarkAblationTopK(b *testing.B) {
	_, db := bundles(b)
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		off, err := experiments.ErrorSweep(db, sc, 50, []int{0})
		if err != nil {
			b.Fatal(err)
		}
		on, err := experiments.ErrorSweep(db, sc, 50, []int{25})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meanErr(off.AvgRelErr)*100, "relerr%@off")
		b.ReportMetric(meanErr(on.AvgRelErr)*100, "relerr%@topk25")
	}
}

// ξ family cost: BCH four-wise vs six-wise polynomial per sketch
// update (the price of enabling product expressions).
func BenchmarkAblationXiBCHUpdate(b *testing.B) {
	benchXiUpdate(b, xi.NewBCHFamily(gf2.MustField(gf2.DefaultModulus(63))))
}

func BenchmarkAblationXiPoly6Update(b *testing.B) {
	fam, err := xi.NewPolyFamily(gf2.MustField(gf2.DefaultModulus(63)), 6)
	if err != nil {
		b.Fatal(err)
	}
	benchXiUpdate(b, fam)
}

func benchXiUpdate(b *testing.B, fam *xi.Family) {
	rng := rand.New(rand.NewPCG(1, 2))
	seeds, err := ams.NewSeeds(fam, 25, 7, rng)
	if err != nil {
		b.Fatal(err)
	}
	sk := seeds.NewSketch()
	p := &xi.Prep{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fam.Prepare(uint64(i)*0x9e3779b97f4a7c15, p)
		sk.UpdatePrepared(p, 1)
	}
}

// 1-D mapping: Rabin fingerprint (default) vs exact Cantor pairing
// over big.Int (the paper's PF alternative) per pattern.
func BenchmarkAblationMappingRabin(b *testing.B) {
	fp := rabin.MustNew(gf2.DefaultModulus(61))
	seq := prufer.OfNode(samplePattern())
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = seq.Encode(buf[:0])
		sinkU64 = fp.Fingerprint(buf)
	}
}

func BenchmarkAblationMappingCantorPairing(b *testing.B) {
	seq := prufer.OfNode(samplePattern())
	fp := rabin.MustNew(gf2.DefaultModulus(61))
	tuple := make([]uint64, 0, len(seq.LPS)+len(seq.NPS))
	for _, l := range seq.LPS {
		tuple = append(tuple, fp.FingerprintString(l)) // hash(X) per §2.2
	}
	for _, n := range seq.NPS {
		tuple = append(tuple, uint64(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBig = pairing.PFTuple(tuple)
	}
}

func samplePattern() *tree.Node {
	return tree.T("S",
		tree.T("NP", tree.T("DT"), tree.T("NN")),
		tree.T("VP", tree.T("VBD"), tree.T("NP")))
}

// Sharded parallel ingestion: AddTree throughput through the Ingestor
// at 1..8 worker shards over the TREEBANK-style generator. The single
// producer only enqueues, so ns/op measures end-to-end ingestion
// (enumeration + sketch updates happen on the workers); near-linear
// scaling up to GOMAXPROCS is the expected shape, since shards share
// no state until the final merge.
func BenchmarkIngestParallel(b *testing.B) {
	cfg := DefaultConfig()
	cfg.MaxPatternEdges = 4
	cfg.VirtualStreams = 59
	cfg.TopK = 0 // merging requires top-k off
	src := datagen.Treebank(5, 1<<20)
	trees := make([]*Tree, 64)
	for i := range trees {
		trees[i], _ = src.Next()
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			in, err := NewIngestor(cfg, workers)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := in.Add(trees[i%len(trees)]); err != nil {
					b.Fatal(err)
				}
			}
			// Close drains the queue and merges the shards; that tail
			// belongs in the timed region for honest throughput.
			st, err := in.Close()
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if st.TreesProcessed() != int64(b.N) {
				b.Fatalf("TreesProcessed = %d, want %d", st.TreesProcessed(), b.N)
			}
			// The always-on counters must be the only instrumentation
			// that ran: with metrics disabled, no stage may carry time
			// (a non-zero duration would mean clock calls on the hot
			// path) while the counters still account for every tree.
			s := st.Stats()
			if s.TimersEnabled {
				b.Fatal("metrics enabled without opt-in")
			}
			for sg := Stage(0); sg < Stage(len(s.Stages)); sg++ {
				if n := s.Stage(sg).Nanos; n != 0 {
					b.Fatalf("stage %v timed %d ns with metrics disabled", sg, n)
				}
			}
			if s.Trees != int64(b.N) {
				b.Fatalf("Stats.Trees = %d, want %d", s.Trees, b.N)
			}
		})
	}
}

// Query latency over a prebuilt synopsis: the cost of one ordered
// point estimate (arrangement + fingerprint + sketch read), the figure
// the -metrics latency histogram buckets.
func BenchmarkEstimateOrdered(b *testing.B) {
	cfg := DefaultConfig()
	cfg.MaxPatternEdges = 4
	cfg.VirtualStreams = 59
	st, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	src := datagen.Treebank(5, 1<<20)
	for i := 0; i < 200; i++ {
		t, _ := src.Next()
		if err := st.AddTree(t); err != nil {
			b.Fatal(err)
		}
	}
	q := Pattern("S", Pattern("NP"), Pattern("VP"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.CountOrdered(q); err != nil {
			b.Fatal(err)
		}
	}
}

// End-to-end stream throughput at the paper's default configuration.
func BenchmarkStreamUpdateThroughput(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.MaxPatternEdges = 4
	cfg.VirtualStreams = 59
	e, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	src := datagen.Treebank(5, 1<<20)
	trees := make([]*tree.Tree, 64)
	for i := range trees {
		trees[i], _ = src.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.AddTree(trees[i%len(trees)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if e.TreesProcessed() > 0 {
		b.ReportMetric(float64(e.PatternsProcessed())/float64(e.TreesProcessed()), "patterns/tree")
	}
}

// The top-k stage of the update kernel: AddTree over DBLP-style records
// at the daemon defaults (k=4, p=229, s1=25, s2=7) with top-k off and
// at 50 per virtual stream; the gap between the two rungs is the cost
// of Algorithm 4. Each engine is warmed on 2048 trees first, so the
// timed trees meet full trackers with steady-state admissions and
// evictions, and later runs continue the same stream.
func BenchmarkAddTreeTopK(b *testing.B) {
	src := datagen.DBLP(1, 1<<20)
	warm := make([]*tree.Tree, 2048)
	for i := range warm {
		warm[i], _ = src.Next()
	}
	timed := make([]*tree.Tree, 4096)
	for i := range timed {
		timed[i], _ = src.Next()
	}
	for _, k := range []int{0, 50} {
		cfg := core.DefaultConfig()
		cfg.TopK = k
		e, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range warm {
			if err := e.AddTree(t); err != nil {
				b.Fatal(err)
			}
		}
		next := 0
		b.Run(fmt.Sprintf("topk=%d", k), func(b *testing.B) {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.AddTree(timed[next%len(timed)]); err != nil {
					b.Fatal(err)
				}
				next++
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tree")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N), "allocs/tree")
		})
	}
}

// BenchmarkSafeAddTreeParallel is the rung of the split update kernel:
// Safe.AddTree on TREEBANK datagen seed 1 at the daemon defaults with
// top-k off, from 1 and 2 goroutines, after 1024 warm-up trees. It
// reports ns/tree and allocs/tree of the whole call, and apply-ns/tree:
// core.Engine.ApplyPrepared alone, timed on a separate engine fed the
// same trees sequentially after the parallel run, each prepared
// beforehand. That is an apply-only proxy for the time Safe.mu is held
// per tree: it leaves out Safe's bookkeeping under the lock (the
// update counter, any snapshot or window publish) and lock waits.
func BenchmarkSafeAddTreeParallel(b *testing.B) {
	src := datagen.Treebank(1, 1<<20)
	warm := make([]*tree.Tree, 1024)
	for i := range warm {
		warm[i], _ = src.Next()
	}
	timed := make([]*tree.Tree, 2048)
	for i := range timed {
		timed[i], _ = src.Next()
	}
	cfg := DefaultConfig()
	cfg.TopK = 0
	for _, g := range []int{1, 2} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			s, err := NewSafe(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, t := range warm {
				if err := s.AddTree(t); err != nil {
					b.Fatal(err)
				}
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for w := 0; w < g; w++ {
				n := b.N / g
				if w < b.N%g {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if err := s.AddTree(timed[int(next.Add(1))%len(timed)]); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tree")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N), "allocs/tree")

			e, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var p core.Prepared
			var apply time.Duration
			for i := 0; i < b.N; i++ {
				if err := e.PrepareTree(timed[i%len(timed)], &p); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if err := e.ApplyPrepared(&p); err != nil {
					b.Fatal(err)
				}
				apply += time.Since(start)
			}
			b.ReportMetric(float64(apply.Nanoseconds())/float64(b.N), "apply-ns/tree")
		})
	}
}

// --- Bench matrix ---
//
// The structured performance surface behind BENCH_matrix.json: ingest
// across tree size × pattern-size bound k × worker shards, query
// latency across query size × plan-cache behavior, and the shard
// merge. `make bench-matrix` runs exactly these cells and summarizes
// them; CI compares the summary against the committed
// testdata/bench/BENCH_baseline.json (warn-only, threshold 1.25).
// Cells use synthetic trees of a fixed node count so each axis varies
// one quantity only.

// matrixTrees builds a deterministic batch of n random trees of
// exactly size nodes over a five-label alphabet, so matrix cells are
// comparable across runs and machines.
func matrixTrees(seed uint64, size, n int) []*Tree {
	rng := rand.New(rand.NewPCG(seed, uint64(size)))
	labels := []string{"A", "B", "C", "D", "E"}
	out := make([]*Tree, n)
	for i := range out {
		nodes := make([]*Node, size)
		for j := range nodes {
			nodes[j] = Pattern(labels[rng.IntN(len(labels))])
		}
		for j := 1; j < size; j++ {
			nodes[rng.IntN(j)].AddChild(nodes[j])
		}
		out[i] = NewTree(nodes[0])
	}
	return out
}

// matrixQueries returns n distinct chain queries of the given edge
// count over the matrixTrees alphabet (distinct root labels, so a
// small plan cache probed round-robin misses every time).
func matrixQueries(edges, n int) []*Node {
	labels := []string{"A", "B", "C", "D", "E"}
	out := make([]*Node, n)
	for i := range out {
		root := Pattern(labels[i%len(labels)])
		cur := root
		for e := 0; e < edges; e++ {
			c := Pattern(labels[(i+e+1)%len(labels)])
			cur.AddChild(c)
			cur = c
		}
		out[i] = root
	}
	return out
}

func BenchmarkMatrixIngest(b *testing.B) {
	for _, size := range []int{16, 64} {
		trees := matrixTrees(11, size, 64)
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			for _, k := range []int{2, 4} {
				b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
					for _, workers := range []int{1, 4} {
						b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
							cfg := DefaultConfig()
							cfg.MaxPatternEdges = k
							cfg.VirtualStreams = 59
							cfg.TopK = 0 // merging requires top-k off
							in, err := NewIngestor(cfg, workers)
							if err != nil {
								b.Fatal(err)
							}
							b.ReportAllocs()
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								if err := in.Add(trees[i%len(trees)]); err != nil {
									b.Fatal(err)
								}
							}
							// Close drains and merges; that tail belongs in
							// the timed region for honest throughput.
							_, err = in.Close()
							b.StopTimer()
							if err != nil {
								b.Fatal(err)
							}
						})
					}
				})
			}
		})
	}
}

func BenchmarkMatrixQuery(b *testing.B) {
	cfg := DefaultConfig()
	cfg.MaxPatternEdges = 4
	cfg.VirtualStreams = 59
	trees := matrixTrees(13, 32, 128)
	stHit, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// The miss engine holds the same synopsis behind a capacity-2 plan
	// cache; four distinct queries probed round-robin evict each entry
	// two probes before its reuse, so every lookup takes the miss path
	// (compute + store + evict) rather than bypassing the cache.
	missCfg := cfg
	missCfg.PlanCacheSize = 2
	stMiss, err := New(missCfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, tr := range trees {
		if err := stHit.AddTree(tr); err != nil {
			b.Fatal(err)
		}
		if err := stMiss.AddTree(tr); err != nil {
			b.Fatal(err)
		}
	}
	for _, edges := range []int{2, 4} {
		b.Run(fmt.Sprintf("pattern=%d", edges), func(b *testing.B) {
			b.Run("cache=hit", func(b *testing.B) {
				q := matrixQueries(edges, 1)[0]
				if _, err := stHit.CountOrdered(q); err != nil { // prime
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := stHit.CountOrdered(q); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("cache=miss", func(b *testing.B) {
				qs := matrixQueries(edges, 4)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := stMiss.CountOrdered(qs[i%len(qs)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkMatrixMerge times the shard-union step parallel ingestion
// pays at Close: a cell-wise sketch addition per virtual stream.
func BenchmarkMatrixMerge(b *testing.B) {
	for _, p := range []int{1, 59} {
		b.Run(fmt.Sprintf("vstreams=%d", p), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.MaxPatternEdges = 4
			cfg.VirtualStreams = p
			cfg.TopK = 0
			dst, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			src, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, tr := range matrixTrees(17, 32, 32) {
				if err := src.AddTree(tr); err != nil {
					b.Fatal(err)
				}
			}
			// Merging the same operand repeatedly just keeps adding its
			// counts — sketches are linear — so each iteration does the
			// same cell-wise work.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dst.Merge(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatrixWindow times windowed ingest across ring width and
// advance cadence: each Add lands in the current slice, every `every`
// trees a slice seals (advance + possible expiry), and each seal
// triggers a merge-rebuild of the published snapshot — so the cells
// expose how rebuild cost scales with live slice count and cadence.
func BenchmarkMatrixWindow(b *testing.B) {
	trees := matrixTrees(19, 32, 128)
	for _, slices := range []int{4, 16} {
		b.Run(fmt.Sprintf("slices=%d", slices), func(b *testing.B) {
			for _, every := range []int{8, 64} {
				b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
					cfg := DefaultConfig()
					cfg.MaxPatternEdges = 4
					cfg.VirtualStreams = 59
					cfg.TopK = 0 // windowing requires top-k off
					safe, err := NewSafe(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if err := safe.EnableWindow(WindowPolicy{
						Slices:     slices,
						SliceTrees: every,
						// Rebuild only on seal, so cadence — not the
						// incremental-refresh default — sets merge frequency.
						RefreshEveryTrees: -1,
					}); err != nil {
						b.Fatal(err)
					}
					defer safe.DisableWindow()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := safe.AddTree(trees[i%len(trees)]); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

var (
	sinkU64 uint64
	sinkBig interface{}
)
