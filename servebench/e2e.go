package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"sketchtree"
)

// bootRun is one boot of the workload's daemons: its setup time, what
// the connections recorded while driving it, and the evidence the
// reference check needs, collected before the daemons stopped.
type bootRun struct {
	setup  time.Duration
	rec    recording // every connection's recording, merged
	tr     traffic
	rssKiB int64

	synopsis []byte   // GET /synopsis (standalone workloads)
	answers  []answer // final catalog answers (mixed-dblp, cluster-dblp)
	answered []bool
}

// runEndToEnd boots the workload's daemons `boots` times. Each boot is
// timed (setup_s is the median), driven for an equal share of the run,
// and asked for its final state. The reference checks run after the
// last boot has stopped, so they never compete with measured traffic.
func runEndToEnd(ctx context.Context, env *runEnv, spec workloadSpec, in *inputs) (*report, error) {
	slice := time.Duration(env.seconds) * time.Second / boots
	var runs []*bootRun
	for b := 0; b < boots; b++ {
		br, err := runBoot(ctx, env, spec, in, b, slice)
		if err != nil {
			return nil, err
		}
		runs = append(runs, br)
	}
	rep := &report{metrics: newMetricSet(), samples: map[string]int{}}
	relerr, err := verifyAll(spec, in, runs, &rep.tally)
	if err != nil {
		return nil, err
	}

	var setups []time.Duration
	var rss []float64
	var ingest, query, busy, quiet phaseStats
	for _, br := range runs {
		setups = append(setups, br.setup)
		rss = append(rss, float64(br.rssKiB)/1024)
		rep.tally.merge(br.rec.tally)
		ingest.addBoot(br.rec.ingest, br.tr.ingestSpan)
		query.addBoot(br.rec.query, br.tr.querySpan)
		busy.addBoot(br.rec.freshBusy, br.tr.querySpan)
		quiet.addBoot(br.rec.freshQuiet, br.tr.querySpan)
	}
	rep.samples["boots"] = boots

	m := rep.metrics
	set := func(name string, v float64, note string) {
		if err == nil {
			err = m.set(name, v, unitOf(name), note)
		}
	}
	set("setup_s", medianDur(setups).Seconds(), fmt.Sprintf("median of %d boots: %.4f", len(setups), durSeconds(setups)))
	for _, ph := range []struct {
		name, rate string
		ps         *phaseStats
	}{{"ingest", "ingest_docs_per_s", &ingest}, {"query", "query_per_s", &query}} {
		t := summarize(ph.ps.lats)
		rep.samples[ph.name] = t.N
		set(ph.rate, ph.ps.rate(), fmt.Sprintf("%d in %.3fs measured over %d boots", t.N, ph.ps.span.Seconds(), len(runs)))
		set(ph.name+"_p50_ms", ms(ph.ps.p50()), fmt.Sprintf("median of %d windows' p50; pooled p50 %.4f", len(ph.ps.p50s), ms(t.P50)))
		set(ph.name+"_p99_ms", ms(t.P99), fmt.Sprintf("p%g of n=%d", t.P99P, t.N))
		rep.extra = append(rep.extra, fmt.Sprintf("timing %s n=%d p50_ms=%.4f p%g_ms=%.4f (highest percentile with >=%d samples beyond it)",
			ph.name, t.N, ms(t.P50), t.TailP, ms(t.Tail), minBeyond))
	}
	set("rss_peak_mb", medianFloat(rss), fmt.Sprintf("VmHWM summed over the daemons, median of %d boots", len(rss)))
	if spec.Shards > 0 {
		for _, ph := range []struct {
			name string
			ps   *phaseStats
		}{{"fresh_busy", &busy}, {"fresh_quiet", &quiet}} {
			t := summarize(ph.ps.lats)
			rep.samples[ph.name] = t.N
			set(ph.name+"_p50_ms", ms(t.P50), fmt.Sprintf("n=%d", t.N))
		}
	}
	set("failed_frac", rep.tally.FailedFrac(), fmt.Sprintf("%d of %d", rep.tally.Failed(), rep.tally.Attempted))
	if relerr >= 0 {
		set("relerr_mean", relerr, fmt.Sprintf("over the last boot's %d catalog answers", len(in.Catalog)))
	}
	if err != nil {
		return nil, err
	}
	rep.extra = append(rep.extra, fmt.Sprintf("workload %s: flags %v; traffic: %s", spec.Name, spec.flags(), spec.Traffic))
	return rep, nil
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// runBoot boots the daemons, drives them for slice, collects the
// evidence for the reference check and the peak RSS, and stops them.
func runBoot(ctx context.Context, env *runEnv, spec workloadSpec, in *inputs, b int, slice time.Duration) (*bootRun, error) {
	l, setup, err := boot(ctx, env, spec, fmt.Sprintf("boot%d", b))
	if err != nil {
		return nil, err
	}
	defer l.stop()
	conns := make([]*conn, numConns)
	for i := range conns {
		conns[i] = newConn(l.front.base)
		defer conns[i].close()
	}
	br := &bootRun{setup: setup, tr: drive(spec, in, conns, slice)}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, c := range conns {
		br.rec.ingest = append(br.rec.ingest, c.rec.ingest...)
		br.rec.query = append(br.rec.query, c.rec.query...)
		br.rec.freshBusy = append(br.rec.freshBusy, c.rec.freshBusy...)
		br.rec.freshQuiet = append(br.rec.freshQuiet, c.rec.freshQuiet...)
		br.rec.acked = append(br.rec.acked, c.rec.acked...)
		br.rec.tally.merge(c.rec.tally)
	}
	if br.tr.ingestOrder == nil {
		br.tr.ingestOrder = br.rec.acked
	}

	// Evidence: the final state, read once traffic has stopped.
	c, t := conns[0], &br.rec.tally
	if spec.Shards > 0 {
		// One fresh pull, then every catalog answer from the merged state.
		_, o := c.answer(in, 0, "/query?fresh=1")
		t.add(o)
	} else {
		data, o := c.get("/synopsis")
		t.add(o)
		br.synopsis = data
	}
	if spec.Shards > 0 || spec.TopK > 0 {
		br.answers = make([]answer, len(in.Catalog))
		br.answered = make([]bool, len(in.Catalog))
		for i := range in.Catalog {
			a, o := c.answer(in, i, "/query")
			t.add(o)
			br.answers[i], br.answered[i] = a, o == okOutcome
		}
	}
	for _, d := range l.all() {
		k, err := d.peakRSSKiB()
		if err != nil {
			return nil, err
		}
		br.rssKiB += k
	}
	return br, nil
}

// verifyAll checks every boot against its reference on numConns
// goroutines, recording one check per comparison in t, and returns the
// last boot's mean relative error where the workload defines it (else
// -1).
func verifyAll(spec workloadSpec, in *inputs, runs []*bootRun, t *tally) (float64, error) {
	tallies := make([]tally, len(runs))
	relerrs := make([]float64, len(runs))
	errs := make([]error, len(runs))
	work := make(chan int, len(runs)) // sized to the sends: every index is queued up front
	for i := range runs {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < numConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				relerrs[i], errs[i] = verifyBoot(spec, in, runs[i], i == len(runs)-1, &tallies[i])
			}
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			return 0, errs[i]
		}
		t.merge(tallies[i])
	}
	return relerrs[len(runs)-1], nil
}

// verifyBoot compares one boot's evidence with the in-process reference
// fed the documents it acknowledged. With score set it also returns the
// catalog answers' mean relative error against exact counts (-1 where
// the workload has no answers to score).
func verifyBoot(spec workloadSpec, in *inputs, br *bootRun, score bool, t *tally) (float64, error) {
	order := br.tr.ingestOrder
	switch {
	case spec.Shards > 0:
		return verifyCluster(in, br, order, score, t)
	case spec.TopK > 0:
		return verifyMixed(spec, in, br, order, score, t)
	}
	var want []byte
	if spec.WindowSlices > 0 {
		ref, err := sketchtree.NewSafe(engineConfig(spec.TopK))
		if err != nil {
			return 0, err
		}
		if err := ref.EnableWindow(sketchtree.WindowPolicy{Slices: spec.WindowSlices, SliceTrees: spec.WindowEvery}); err != nil {
			return 0, err
		}
		defer ref.DisableWindow()
		for _, seq := range order {
			_, tr := in.doc(seq)
			if err := ref.AddTree(tr); err != nil {
				return 0, err
			}
		}
		if want, err = ref.MarshalBinary(); err != nil {
			return 0, err
		}
	} else {
		ref, err := landmark(in, order)
		if err != nil {
			return 0, err
		}
		if want, err = ref.MarshalBinary(); err != nil {
			return 0, err
		}
	}
	if br.synopsis != nil {
		t.check(bytes.Equal(br.synopsis, want))
	}
	return -1, nil
}

// engineConfig is the sketchtreed default configuration with the given
// top-k setting.
func engineConfig(topk int) sketchtree.Config {
	cfg := sketchtree.DefaultConfig()
	cfg.MaxPatternEdges, cfg.S1, cfg.S2, cfg.VirtualStreams = cfgK, cfgS1, cfgS2, cfgP
	cfg.TopK, cfg.Seed, cfg.Independence, cfg.PlanCacheSize = topk, cfgSeed, 4, 0
	return cfg
}

// landmark builds the top-k-off reference over the given documents.
// The synopsis is linear, so adding them in any order gives the same
// bytes.
func landmark(in *inputs, seqs []int) (*sketchtree.SketchTree, error) {
	st, err := sketchtree.New(engineConfig(0))
	if err != nil {
		return nil, err
	}
	for _, s := range seqs {
		_, tr := in.doc(s)
		if err := st.AddTree(tr); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// verifyMixed checks the top-k daemon: its synopsis must equal the
// reference fed the preload and then connection A's documents in
// order, and its final catalog answers (served from a snapshot of the
// first T documents) must equal the reference's snapshot at T.
func verifyMixed(spec workloadSpec, in *inputs, br *bootRun, order []int, score bool, t *tally) (float64, error) {
	var served int64 = -1
	for i, ok := range br.answered {
		if !ok {
			continue
		}
		if served < 0 {
			served = br.answers[i].Trees
		}
		t.check(br.answers[i].Trees == served)
	}
	ref, err := sketchtree.New(engineConfig(spec.TopK))
	if err != nil {
		return 0, err
	}
	exact, err := newExactCounter()
	if err != nil {
		return 0, err
	}
	seq := append([]*sketchtree.Tree(nil), in.preloadTrees...)
	for _, s := range order {
		_, tr := in.doc(s)
		seq = append(seq, tr)
	}
	var snap *sketchtree.SketchTree
	for i := 0; i <= len(seq); i++ {
		if int64(i) == served {
			if snap, err = ref.Snapshot(); err != nil {
				return 0, err
			}
		}
		if i == len(seq) {
			break
		}
		if err := ref.AddTree(seq[i]); err != nil {
			return 0, err
		}
		if score && int64(i) < served {
			if err := exact.add(seq[i]); err != nil {
				return 0, err
			}
		}
	}
	want, err := ref.MarshalBinary()
	if err != nil {
		return 0, err
	}
	if br.synopsis != nil {
		t.check(bytes.Equal(br.synopsis, want))
	}
	if snap == nil {
		// The served snapshot covers a tree count no prefix reaches.
		t.check(false)
		return -1, nil
	}
	return scoreAnswers(in, br, snap, exact, score, t)
}

// verifyCluster checks each of the coordinator's catalog answers after
// the fresh pull is == to a single reference engine fed every
// acknowledged document.
func verifyCluster(in *inputs, br *bootRun, acked []int, score bool, t *tally) (float64, error) {
	for i, ok := range br.answered {
		if ok {
			t.check(br.answers[i].Trees == int64(len(acked)))
		}
	}
	ref, err := landmark(in, acked)
	if err != nil {
		return 0, err
	}
	exact, err := newExactCounter()
	if err != nil {
		return 0, err
	}
	if score {
		for _, s := range acked {
			_, tr := in.doc(s)
			if err := exact.add(tr); err != nil {
				return 0, err
			}
		}
	}
	return scoreAnswers(in, br, ref, exact, score, t)
}

// scoreAnswers checks each received answer against ref (==) and, with
// score set, returns the mean relative error against the exact counts.
func scoreAnswers(in *inputs, br *bootRun, ref querier, exact *exactCounter, score bool, t *tally) (float64, error) {
	sum, n := 0.0, 0
	for i, e := range in.Catalog {
		if !br.answered[i] {
			continue
		}
		want, err := e.ask(ref)
		if err != nil {
			return 0, err
		}
		got := br.answers[i]
		got.Trees = 0
		t.check(got.equal(want))
		if !score {
			continue
		}
		truth, err := exact.truth(e)
		if err != nil {
			return 0, err
		}
		sum += relErr(got.Estimate, truth)
		n++
	}
	if n == 0 {
		return -1, nil
	}
	return sum / float64(n), nil
}
