package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"sketchtree"
	"sketchtree/internal/cluster"
	"sketchtree/internal/core"
	"sketchtree/internal/enum"
	"sketchtree/internal/obs"
	"sketchtree/internal/obs/trace"
	"sketchtree/internal/server"
)

// Replay sizes of the traced run. Every pass replays the same inputs;
// passes repeat until the run length has passed.
const (
	replayDocs     = 256  // documents per layer replay
	replayDraws    = 2048 // catalog draws for the query layers
	planWarmDraws  = 8192 // draws that warm the plan cache before hits are counted
	hitMissQueries = 256  // distinct ordered patterns for hit/miss timing
	refreshes      = 8    // snapshot refreshes, seals and window rebuilds timed per pass
	clusterRounds  = 6    // busy+quiet pull-round pairs per pass
	roundBurst     = 32   // documents ingested before each busy round
	windowAdds     = 12 * windowEvery
	overheadReps   = 5 // replays each with span recording on and off
	maxPasses      = 8
)

// replay is one traced pass over a workload's inputs.
type replay struct {
	ctx   context.Context
	env   *runEnv
	spec  workloadSpec
	in    *inputs
	tr    *tracer
	tally *tally
	pass  int

	// Per-pass accumulators the metrics are derived from.
	acc *accum
}

// accum collects the counts that are not span durations.
type accum struct {
	trees, patterns         int64
	parseAllocs, addAllocs  []float64
	queryAllocs             []float64
	ingestAllocs, qryAllocs []float64
	planHits, planLookups   int64
	synopsisBytes           []float64
	pullBytes, pullRounds   int64
	quietRebuilds, quietRds int64
	winRebuilds, winAdds    int64
	overheadPct             []float64
}

func runTraced(ctx context.Context, env *runEnv, spec workloadSpec, in *inputs) (*report, error) {
	tr := newTracer(true)
	rep := &report{metrics: newMetricSet(), samples: map[string]int{}}
	acc := &accum{}
	start := time.Now()
	passes := 0
	for passes < maxPasses && (passes == 0 || time.Since(start) < time.Duration(env.seconds)*time.Second) {
		r := &replay{ctx: ctx, env: env, spec: spec, in: in, tr: tr, tally: &rep.tally, pass: passes, acc: acc}
		if err := r.run(); err != nil {
			return nil, err
		}
		passes++
	}
	rep.samples["passes"] = passes
	if err := tracedMetrics(tr, acc, rep); err != nil {
		return nil, err
	}
	spanPath := filepath.Join(env.outDir, "spans.json")
	if err := tr.writeSpans(spanPath); err != nil {
		return nil, err
	}
	var self bytes.Buffer
	printSelf(&self, spec.Name, tr.spans)
	for _, l := range bytes.Split(bytes.TrimSpace(self.Bytes()), []byte("\n")) {
		rep.extra = append(rep.extra, string(l))
	}
	rep.extra = append(rep.extra, fmt.Sprintf("spans %d written to %s", len(tr.spans), spanPath))
	return rep, nil
}

// run executes every layer replay once.
func (r *replay) run() error {
	steps := []struct {
		name string
		fn   func(parent int) error
	}{
		{"tree", r.parseLayer},
		{"enum", r.enumLayer},
		{"core", r.addLayer},
		{"topk", r.topkLayer},
		{"sketchtree", r.safeLayer},
		{"snapshot", r.snapshotLayer},
		{"query", r.queryLayer},
		{"plans", r.planLayer},
		{"server", r.serverLayer},
		{"net", r.netLayer},
		{"cluster", r.clusterLayer},
		{"window", r.windowLayer},
		{"trace", r.overheadLayer},
	}
	for _, s := range steps {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		id := r.tr.reserve("pass."+s.name, 0, int64(r.pass))
		err := s.fn(id)
		r.tr.finish(id)
		if err != nil {
			return fmt.Errorf("%s layer: %w", s.name, err)
		}
	}
	return nil
}

// note records one replayed call's error (if any) as an attempted
// operation.
func (r *replay) note(err error) {
	if err != nil {
		r.tally.add(errOutcome)
		return
	}
	r.tally.add(okOutcome)
}

func (r *replay) docs() ([][]byte, []*sketchtree.Tree) {
	raw := make([][]byte, replayDocs)
	trees := make([]*sketchtree.Tree, replayDocs)
	for i := range raw {
		raw[i], trees[i] = r.in.doc(i)
	}
	return raw, trees
}

// allocsPer returns heap allocations per call of fn over n calls.
func allocsPer(n int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// parseLayer: internal/tree via sketchtree.ParseXML, per document.
func (r *replay) parseLayer(parent int) error {
	raw, _ := r.docs()
	for i, d := range raw {
		s := r.tr.begin()
		_, err := sketchtree.ParseXML(bytes.NewReader(d))
		r.tr.end(s, "tree.ParseXML", parent, int64(i))
		r.note(err)
	}
	r.acc.parseAllocs = append(r.acc.parseAllocs, allocsPer(len(raw), func(i int) {
		_, _ = sketchtree.ParseXML(bytes.NewReader(raw[i]))
	}))
	return nil
}

// enumLayer: internal/enum, Enumerator.ForEach per tree.
func (r *replay) enumLayer(parent int) error {
	_, trees := r.docs()
	en, err := enum.NewEnumerator(cfgK)
	if err != nil {
		return err
	}
	count := func(*enum.Pattern) error { r.acc.patterns++; return nil }
	for i, t := range trees {
		s := r.tr.begin()
		en.Reset()
		err := en.ForEach(t.Root, count)
		r.tr.end(s, "enum.Enumerator.ForEach", parent, int64(i))
		r.note(err)
		r.acc.trees++
	}
	return nil
}

// coreEngine builds an internal/core engine with the daemon defaults at
// the given top-k setting.
func coreEngine(topk int) (*core.Engine, error) { return core.New(engineConfig(topk)) }

// addLayer: internal/core, Engine.AddTree with top-k off; then the
// allocations of a second, steady-state pass.
func (r *replay) addLayer(parent int) error {
	_, trees := r.docs()
	e, err := coreEngine(0)
	if err != nil {
		return err
	}
	for i, t := range trees {
		s := r.tr.begin()
		err := e.AddTree(t)
		r.tr.end(s, "core.Engine.AddTree", parent, int64(i))
		r.note(err)
	}
	r.acc.addAllocs = append(r.acc.addAllocs, allocsPer(len(trees), func(i int) { _ = e.AddTree(trees[i]) }))
	return nil
}

// topkLayer: Engine.AddTree with top-k 50 on the same trees; the
// difference to the top-k-off call is internal/topk's processing.
func (r *replay) topkLayer(parent int) error {
	_, trees := r.docs()
	e, err := coreEngine(cfgTopK)
	if err != nil {
		return err
	}
	for i, t := range trees {
		s := r.tr.begin()
		err := e.AddTree(t)
		r.tr.end(s, "core.Engine.AddTree/topk50", parent, int64(i))
		r.note(err)
	}
	return nil
}

// safeLayer: the root Safe, AddTree from two goroutines sharing it.
// The result must equal a sequential engine byte for byte.
func (r *replay) safeLayer(parent int) error {
	_, trees := r.docs()
	safe, err := sketchtree.NewSafe(engineConfig(0))
	if err != nil {
		return err
	}
	errs := make([]error, numConns)
	done := make(chan struct{})
	for w := 0; w < numConns; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := w; i < len(trees); i += numConns {
				s := r.tr.begin()
				err := safe.AddTree(trees[i])
				r.tr.end(s, "sketchtree.Safe.AddTree", parent, int64(i))
				if err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	for w := 0; w < numConns; w++ {
		<-done
	}
	for _, err := range errs {
		r.note(err)
	}
	ref, err := coreEngine(0)
	if err != nil {
		return err
	}
	for _, t := range trees {
		if err := ref.AddTree(t); err != nil {
			return err
		}
	}
	got, err := safe.MarshalBinary()
	if err != nil {
		return err
	}
	want, err := ref.MarshalBinary()
	if err != nil {
		return err
	}
	r.tally.check(bytes.Equal(got, want))
	return nil
}

// snapshotTopK returns a Safe at top-k 50 holding the replay documents,
// with snapshot serving on and refreshed only on demand.
func (r *replay) snapshotTopK() (*sketchtree.Safe, error) {
	_, trees := r.docs()
	safe, err := sketchtree.NewSafe(engineConfig(cfgTopK))
	if err != nil {
		return nil, err
	}
	for _, t := range trees {
		if err := safe.AddTree(t); err != nil {
			return nil, err
		}
	}
	if err := safe.EnableSnapshots(sketchtree.SnapshotPolicy{EveryTrees: 1 << 30}); err != nil {
		return nil, err
	}
	return safe, nil
}

// snapshotLayer: Safe.RefreshSnapshot at top-k 50, with a few
// documents ingested between refreshes.
func (r *replay) snapshotLayer(parent int) error {
	safe, err := r.snapshotTopK()
	if err != nil {
		return err
	}
	defer safe.DisableSnapshots()
	for k := 0; k < refreshes; k++ {
		for j := 0; j < 8; j++ {
			_, t := r.in.doc(replayDocs + k*8 + j)
			r.note(safe.AddTree(t))
		}
		s := r.tr.begin()
		err := safe.RefreshSnapshot()
		r.tr.end(s, "sketchtree.Safe.RefreshSnapshot", parent, int64(k))
		r.note(err)
	}
	return nil
}

// orderedPatterns returns up to n distinct ordered catalog patterns.
func (r *replay) orderedPatterns(n int) []*sketchtree.Node {
	var out []*sketchtree.Node
	for _, e := range r.in.Catalog {
		if e.Kind == "ordered" && len(out) < n {
			out = append(out, e.nodes[0])
		}
	}
	return out
}

// queryLayer: CountOrdered on the served snapshot of the workload's
// configuration — each pattern's first query misses the plan cache,
// its second hits.
func (r *replay) queryLayer(parent int) error {
	_, trees := r.docs()
	safe, err := sketchtree.NewSafe(engineConfig(r.spec.TopK))
	if err != nil {
		return err
	}
	for _, t := range trees {
		if err := safe.AddTree(t); err != nil {
			return err
		}
	}
	if err := safe.EnableSnapshots(sketchtree.SnapshotPolicy{EveryTrees: 1 << 30}); err != nil {
		return err
	}
	defer safe.DisableSnapshots()
	sn := safe.SnapshotTree()
	if sn == nil {
		return fmt.Errorf("no snapshot served")
	}
	pats := r.orderedPatterns(hitMissQueries)
	for i, q := range pats {
		s := r.tr.begin()
		_, err := sn.CountOrdered(q)
		r.tr.end(s, "core.CountOrdered/miss", parent, int64(i))
		r.note(err)
		s = r.tr.begin()
		_, err = sn.CountOrdered(q)
		r.tr.end(s, "core.CountOrdered/hit", parent, int64(i))
		r.note(err)
	}
	r.acc.queryAllocs = append(r.acc.queryAllocs, allocsPer(len(pats), func(i int) { _, _ = sn.CountOrdered(pats[i]) }))
	return nil
}

// planLayer replays the catalog draw sequence against the engine that
// serves it and counts plan-cache hits over the last replayDraws draws,
// after planWarmDraws that bring a long-lived cache to its steady
// state. Standalone daemons keep one serving engine; the cluster
// coordinator restores a new merged engine, with an empty plan cache,
// every fresh round, that is every clusterQueries draws.
func (r *replay) planLayer(parent int) error {
	_, trees := r.docs()
	draw := r.in.drawer(100 + uint64(r.pass))
	var hits, lookups int64
	plans := func(st sketchtree.Stats) (int64, int64) {
		if st.Plans == nil {
			return 0, 0
		}
		return st.Plans.Hits, st.Plans.Hits + st.Plans.Misses
	}
	if r.spec.Shards > 0 {
		base, err := landmark(r.in, seqRange(len(trees)))
		if err != nil {
			return err
		}
		data, err := base.MarshalBinary()
		if err != nil {
			return err
		}
		var eng *sketchtree.SketchTree
		for i := 0; i < planWarmDraws+replayDraws; i++ {
			if i%clusterQueries == 0 {
				if eng != nil && i > planWarmDraws {
					h, l := plans(eng.Stats())
					hits, lookups = hits+h, lookups+l
				}
				if eng, err = sketchtree.Restore(data); err != nil {
					return err
				}
			}
			r.askTimed(eng, draw(), parent, i)
		}
		h, l := plans(eng.Stats())
		r.acc.planHits, r.acc.planLookups = r.acc.planHits+hits+h, r.acc.planLookups+lookups+l
		return nil
	}
	safe, stop, err := r.servingSafe(trees)
	if err != nil {
		return err
	}
	defer stop()
	for i := 0; i < planWarmDraws+replayDraws; i++ {
		if i == planWarmDraws {
			hits, lookups = plans(servedStats(safe))
		}
		r.askTimed(safe, draw(), parent, i)
	}
	h, l := plans(servedStats(safe))
	r.acc.planHits, r.acc.planLookups = r.acc.planHits+h-hits, r.acc.planLookups+l-lookups
	return nil
}

func (r *replay) askTimed(q querier, idx, parent, req int) {
	s := r.tr.begin()
	_, err := r.in.Catalog[idx].ask(q)
	r.tr.end(s, "plans.ask/"+r.in.Catalog[idx].Kind, parent, int64(req))
	r.note(err)
}

// servedStats returns the statistics of the engine answering a Safe's
// reads: the snapshot when snapshot serving is on, else the Safe's own.
func servedStats(safe *sketchtree.Safe) sketchtree.Stats {
	if sn := safe.SnapshotTree(); sn != nil && !safe.WindowEnabled() {
		return sn.Stats()
	}
	return safe.Stats()
}

// servingSafe builds a Safe configured like the workload's standalone
// daemon (or one shard), fed trees, and returns it with its teardown.
func (r *replay) servingSafe(trees []*sketchtree.Tree) (*sketchtree.Safe, func(), error) {
	safe, err := sketchtree.NewSafe(engineConfig(r.spec.TopK))
	if err != nil {
		return nil, nil, err
	}
	stop := func() {}
	if r.spec.WindowSlices > 0 {
		if err := safe.EnableWindow(sketchtree.WindowPolicy{Slices: r.spec.WindowSlices, SliceTrees: r.spec.WindowEvery}); err != nil {
			return nil, nil, err
		}
		stop = safe.DisableWindow
	}
	for _, t := range trees {
		if err := safe.AddTree(t); err != nil {
			stop()
			return nil, nil, err
		}
	}
	if r.spec.SnapshotEvery > 0 {
		if err := safe.EnableSnapshots(sketchtree.SnapshotPolicy{EveryTrees: r.spec.SnapshotEvery}); err != nil {
			return nil, nil, err
		}
		stop = safe.DisableSnapshots
	}
	return safe, stop, nil
}

// newRecorder is the flight recorder the daemon builds by default.
func newRecorder(role string) *trace.Recorder { return trace.New(role, 256, 500*time.Millisecond) }

// serverLayer: internal/server's handler through httptest, /ingest for
// each replay document then /query for the catalog draws, on a Safe
// configured like the workload's daemon (empty, as the net layer's
// daemon starts).
func (r *replay) serverLayer(parent int) error {
	safe, stop, err := r.servingSafe(nil)
	if err != nil {
		return err
	}
	defer stop()
	h := server.New(safe, server.Options{Trace: newRecorder("standalone"), Role: "standalone"}).Handler()
	raw, _ := r.docs()
	serve := func(name, path string, body []byte, req int) {
		rq := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rw := httptest.NewRecorder()
		s := r.tr.begin()
		h.ServeHTTP(rw, rq)
		r.tr.end(s, name, parent, int64(req))
		r.tally.add(classify(rw.Code, nil))
	}
	for i, d := range raw {
		serve("server.Handler/ingest", "/ingest", d, i)
	}
	draw := r.in.drawer(200 + uint64(r.pass))
	for i := 0; i < replayDraws; i++ {
		serve("server.Handler/query", "/query", r.in.Catalog[draw()].Body, i)
	}
	r.acc.ingestAllocs = append(r.acc.ingestAllocs, handlerAllocs(h, "/ingest", func(i int) []byte {
		d, _ := r.in.doc(replayDocs + i)
		return d
	}))
	r.acc.qryAllocs = append(r.acc.qryAllocs, handlerAllocs(h, "/query", func(i int) []byte {
		return r.in.Catalog[draw()].Body
	}))
	return nil
}

// handlerAllocs returns allocations per ServeHTTP call, with requests
// and recorders built before counting.
func handlerAllocs(h http.Handler, path string, body func(i int) []byte) float64 {
	const n = 64
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body(i)))
		recs[i] = httptest.NewRecorder()
	}
	return allocsPer(n, func(i int) { h.ServeHTTP(recs[i], reqs[i]) })
}

// netLayer: the same requests against a real daemon over loopback, one
// connection; the difference to the handler is loopback, client and
// scheduling.
func (r *replay) netLayer(parent int) error {
	spec := r.spec
	spec.Preload, spec.Shards = 0, 0
	if r.spec.Shards > 0 {
		spec.TopK = 0
	}
	d, err := startDaemon(r.env.daemonBin, fmt.Sprintf("net-pass%d", r.pass), r.env.outDir, spec.flags())
	if err != nil {
		return err
	}
	defer d.stop()
	c := newConn(d.base)
	defer c.close()
	raw, _ := r.docs()
	send := func(name, path string, body []byte, req int) {
		s := r.tr.begin()
		status, _, _, err := c.post(path, body)
		r.tr.end(s, name, parent, int64(req))
		r.tally.add(classify(status, err))
	}
	for i, doc := range raw {
		send("net.daemon/ingest", "/ingest", doc, i)
	}
	draw := r.in.drawer(200 + uint64(r.pass))
	for i := 0; i < replayDraws; i++ {
		send("net.daemon/query", "/query", r.in.Catalog[draw()].Body, i)
	}
	return nil
}

// clusterLayer: three in-process shards behind httptest servers, the
// coordinator's handler routing ingests to them, the shard synopses'
// MarshalBinary/Restore/Merge, and Puller.PullNow busy and quiet rounds.
func (r *replay) clusterLayer(parent int) error {
	shards := make([]*sketchtree.Safe, clusterShards)
	urls := make([]string, clusterShards)
	for i := range shards {
		safe, err := sketchtree.NewSafe(engineConfig(0))
		if err != nil {
			return err
		}
		shards[i] = safe
		ts := httptest.NewServer(server.New(safe, server.Options{Trace: newRecorder("shard"), Role: "shard"}).Handler())
		defer ts.Close()
		urls[i] = ts.URL
	}
	met := obs.NewClusterMetrics(clusterShards)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer client.CloseIdleConnections()
	puller, err := cluster.New(cluster.Config{Shards: urls, PullEvery: 24 * time.Hour, Metrics: met, Client: client})
	if err != nil {
		return err
	}
	fallback, err := sketchtree.New(engineConfig(0))
	if err != nil {
		return err
	}
	co := server.NewCoordinator(puller, fallback, met, server.Options{Trace: newRecorder("coordinator"), Role: "coordinator"})
	h := co.Handler()
	sent := 0
	route := func(name string, req int) {
		doc, _ := r.in.doc(sent)
		sent++
		rq := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(doc))
		rw := httptest.NewRecorder()
		s := r.tr.begin()
		h.ServeHTTP(rw, rq)
		r.tr.end(s, name, parent, int64(req))
		r.tally.add(classify(rw.Code, nil))
	}
	for i := 0; i < replayDocs; i++ {
		route("server.Coordinator/ingest", i)
	}

	// Synopsis layer: serialize, restore and combine the shard states.
	for k := 0; k < 4; k++ {
		restored := make([]*sketchtree.SketchTree, clusterShards)
		for i, safe := range shards {
			s := r.tr.begin()
			data, err := safe.MarshalBinary()
			r.tr.end(s, "core.MarshalBinary", parent, int64(i))
			r.note(err)
			if err != nil {
				return err
			}
			r.acc.synopsisBytes = append(r.acc.synopsisBytes, float64(len(data)))
			s = r.tr.begin()
			restored[i], err = sketchtree.Restore(data)
			r.tr.end(s, "core.Restore", parent, int64(i))
			r.note(err)
			if err != nil {
				return err
			}
		}
		for i := 1; i < clusterShards; i++ {
			s := r.tr.begin()
			err := restored[0].Merge(restored[i])
			r.tr.end(s, "core.Merge", parent, int64(i))
			r.note(err)
		}
		if k == 0 {
			if err := r.checkCombined(restored[0], sent); err != nil {
				return err
			}
		}
	}

	// Pull rounds: a burst then a busy round, then a quiet one.
	for k := 0; k < clusterRounds; k++ {
		for j := 0; j < roundBurst; j++ {
			route("server.Coordinator/ingest", replayDocs+k*roundBurst+j)
		}
		before := pulledBytes(met)
		s := r.tr.begin()
		err := puller.PullNow(r.ctx)
		r.tr.end(s, "cluster.Puller.PullNow/busy", parent, int64(k))
		r.note(err)
		rounds := puller.Serving().Rounds
		s = r.tr.begin()
		err = puller.PullNow(r.ctx)
		r.tr.end(s, "cluster.Puller.PullNow/quiet", parent, int64(k))
		r.note(err)
		r.acc.quietRebuilds += puller.Serving().Rounds - rounds
		r.acc.quietRds++
		r.acc.pullBytes += pulledBytes(met) - before
		r.acc.pullRounds += 2
	}
	return r.checkCombined(puller.Serving().Tree, sent)
}

// checkCombined records whether a combined cluster synopsis equals one
// engine fed the first n documents.
func (r *replay) checkCombined(got *sketchtree.SketchTree, n int) error {
	ref, err := landmark(r.in, seqRange(n))
	if err != nil {
		return err
	}
	a, err := got.MarshalBinary()
	if err != nil {
		return err
	}
	b, err := ref.MarshalBinary()
	if err != nil {
		return err
	}
	r.tally.check(bytes.Equal(a, b))
	return nil
}

// seqRange returns the document sequence numbers 0..n-1.
func seqRange(n int) []int {
	seqs := make([]int, n)
	for i := range seqs {
		seqs[i] = i
	}
	return seqs
}

func pulledBytes(m *obs.ClusterMetrics) int64 {
	var n int64
	for _, s := range m.Snapshot() {
		n += s.PullBytes
	}
	return n
}

// windowLayer: internal/window through Safe.AddTree with the window
// policy of window-dblp, then timed seals (AdvanceWindow) and rebuilds
// (RefreshWindow).
func (r *replay) windowLayer(parent int) error {
	safe, err := sketchtree.NewSafe(engineConfig(0))
	if err != nil {
		return err
	}
	if err := safe.EnableWindow(sketchtree.WindowPolicy{Slices: windowSlices, SliceTrees: windowEvery}); err != nil {
		return err
	}
	defer safe.DisableWindow()
	stats := func() *sketchtree.WindowStats {
		ws, _ := safe.WindowStats()
		return ws
	}
	start := stats()
	advances := start.Advances
	for i := 0; i < windowAdds; i++ {
		_, t := r.in.doc(i)
		s := r.tr.begin()
		err := safe.AddTree(t)
		e := r.tr.begin()
		r.note(err)
		name := "window.Safe.AddTree"
		if ws := stats(); ws.Advances != advances {
			advances, name = ws.Advances, "window.Safe.AddTree/seal"
		}
		r.tr.record(s, e, name, parent, int64(i))
	}
	fin := stats()
	r.acc.winRebuilds += fin.Rebuilds - start.Rebuilds
	r.acc.winAdds += windowAdds
	// Fill each slice to the policy's size first, so every timed seal
	// and rebuild merges a full ring, as window-dblp's steady state does.
	for k := 0; k < refreshes; k++ {
		for j := 0; j < windowEvery-1; j++ {
			_, t := r.in.doc(windowAdds + k*windowEvery + j)
			r.note(safe.AddTree(t))
		}
		s := r.tr.begin()
		err := safe.AdvanceWindow()
		r.tr.end(s, "window.Safe.AdvanceWindow", parent, int64(k))
		r.note(err)
		s = r.tr.begin()
		err = safe.RefreshWindow()
		r.tr.end(s, "window.Safe.RefreshWindow", parent, int64(k))
		r.note(err)
	}
	return nil
}

// overheadLayer replays core.Engine.AddTree over the replay documents
// with span recording on and off, alternating, after one warm-up
// replay that is not counted.
func (r *replay) overheadLayer(parent int) error {
	_, trees := r.docs()
	var on, off []time.Duration
	for k := -1; k < 2*overheadReps; k++ {
		e, err := coreEngine(0)
		if err != nil {
			return err
		}
		t := newTracer(k%2 == 0)
		start := time.Now()
		for i, tr := range trees {
			s := t.begin()
			err := e.AddTree(tr)
			t.end(s, "core.Engine.AddTree", 0, int64(i))
			if err != nil {
				return err
			}
		}
		switch {
		case k < 0:
		case t.on:
			on = append(on, time.Since(start))
		default:
			off = append(off, time.Since(start))
		}
	}
	base := medianDur(off)
	r.acc.overheadPct = append(r.acc.overheadPct, 100*float64(medianDur(on)-base)/float64(base))
	return nil
}

// tracedMetrics derives the per-layer metrics from the spans and the
// accumulated counts.
func tracedMetrics(tr *tracer, acc *accum, rep *report) error {
	m := rep.metrics
	med := func(name string) time.Duration {
		ds := tr.durations(name)
		rep.samples[name] = len(ds)
		return medianDur(ds)
	}
	var err error
	set := func(name string, v float64, note string) {
		if err == nil {
			err = m.set(name, v, unitOf(name), note)
		}
	}
	parse := med("tree.ParseXML")
	enumT := med("enum.Enumerator.ForEach")
	add := med("core.Engine.AddTree")
	addTopK := med("core.Engine.AddTree/topk50")
	safeAdd := med("sketchtree.Safe.AddTree")
	srvIngest := med("server.Handler/ingest")
	srvQuery := med("server.Handler/query")
	netIngest := med("net.daemon/ingest")
	netQuery := med("net.daemon/query")

	set("tree.parse_us", us(parse), "median per document")
	set("tree.parse_allocs", medianFloat(acc.parseAllocs), "per document")
	set("enum.enum_us", us(enumT), "median per tree")
	set("enum.patterns_per_tree", float64(acc.patterns)/float64(acc.trees), "mean")
	set("core.add_us", us(add), "median per tree, top-k off")
	set("core.add_allocs", medianFloat(acc.addAllocs), "per tree, steady state")
	set("core.update_us", us(add-enumT), "core.add_us - enum.enum_us")
	set("topk.process_us", us(addTopK-add), "AddTree at top-k 50 - at top-k 0")
	set("sketchtree.add_wait_us", us(safeAdd-add), "Safe.AddTree from 2 goroutines - core.add_us")
	set("sketchtree.snapshot_ms", ms(med("sketchtree.Safe.RefreshSnapshot")), "median, top-k 50")
	set("core.query_hit_us", us(med("core.CountOrdered/hit")), "median")
	set("core.query_miss_us", us(med("core.CountOrdered/miss")), "median")
	set("core.query_allocs", medianFloat(acc.queryAllocs), "per plan-hit query")
	ratio := 0.0
	if acc.planLookups > 0 {
		ratio = float64(acc.planHits) / float64(acc.planLookups)
	}
	set("core.plan_hit_ratio", ratio, fmt.Sprintf("%d of %d lookups", acc.planHits, acc.planLookups))
	set("server.ingest_us", us(srvIngest), "median")
	set("server.ingest_allocs", medianFloat(acc.ingestAllocs), "per request")
	set("server.query_us", us(srvQuery), "median")
	set("server.query_allocs", medianFloat(acc.qryAllocs), "per request")
	set("net.ingest_overhead_us", us(netIngest-srvIngest), "daemon p50 - handler p50")
	set("net.query_overhead_us", us(netQuery-srvQuery), "daemon p50 - handler p50")
	set("server.coord_ingest_us", us(med("server.Coordinator/ingest")), "median, routed to in-process shards")
	set("core.marshal_ms", ms(med("core.MarshalBinary")), "median per shard")
	set("core.restore_ms", ms(med("core.Restore")), "median per shard")
	set("core.merge_ms", ms(med("core.Merge")), "median per shard merged")
	set("core.synopsis_kb", medianFloat(acc.synopsisBytes)/1024, "median shard synopsis")
	set("cluster.round_busy_ms", ms(med("cluster.Puller.PullNow/busy")), "median")
	set("cluster.round_quiet_ms", ms(med("cluster.Puller.PullNow/quiet")), "median")
	set("cluster.pull_bytes_per_round", float64(acc.pullBytes)/float64(max(acc.pullRounds, 1)), "mean")
	set("cluster.quiet_rebuild_ratio", float64(acc.quietRebuilds)/float64(max(acc.quietRds, 1)), "rebuilds per quiet round")
	set("window.add_us", us(med("window.Safe.AddTree")), "median, non-sealing adds")
	set("window.seal_ms", ms(med("window.Safe.AdvanceWindow")), "median")
	set("window.rebuild_ms", ms(med("window.Safe.RefreshWindow")), "median")
	set("window.rebuilds_per_1k_trees", 1000*float64(acc.winRebuilds)/float64(max(acc.winAdds, 1)), "policy-driven rebuilds")
	set("trace.overhead_pct", medianFloat(acc.overheadPct), "span recording on vs off")
	return err
}
