package main

import "strconv"

// Workload and metric definitions. BENCHMARK.json at the repository
// root carries the same names, units and directions (a test holds the
// two in step); METRICS.md maps each per-layer metric to the end-to-end
// metric it should move.

// Engine parameters shared by every daemon: the sketchtreed defaults.
const (
	cfgK     = 4
	cfgP     = 229
	cfgS1    = 25
	cfgS2    = 7
	cfgSeed  = 1
	cfgTopK  = 50 // the daemon default; workloads pass -topk 0 where noted
	numConns = 2  // closed-loop connections (nproc on the reference host)

	catalogSize   = 2048 // distinct catalog queries, 4x the plan cache
	catalogDocs   = 256  // corpus prefix the catalog patterns come from
	catalogZipfS  = 0.7  // popularity skew of catalog draws: the top 512 entries draw about 63%
	poolDocs      = 8192 // generated ingest documents, cycled if exhausted
	mixedPreload  = 2048 // documents preloaded into mixed-dblp
	boots         = 5    // daemon boots per run, each driven for 1/boots of the run
	clusterShards = 3

	windowSlices = 8
	windowEvery  = 128
)

// workloadSpec describes one traffic mix against one daemon layout.
type workloadSpec struct {
	Name   string
	Corpus string // "TREEBANK" or "DBLP"

	// Daemon settings that differ from the sketchtreed defaults; see
	// flags. Shards > 0 runs that many shards behind a coordinator.
	TopK          int
	SnapshotEvery int
	WindowSlices  int
	WindowEvery   int
	Shards        int
	Preload       int // documents preloaded from a forest file at boot

	Traffic string
	Why     string
}

var workloads = []workloadSpec{
	{
		Name:    "ingest-treebank",
		Corpus:  "TREEBANK",
		TopK:    0,
		Traffic: "2 connections of single-document POST /ingest for the first half of each boot's share of the run, then 2 connections of catalog POST /query for the second half",
		Why: "The update kernel (enum, encode, rabin, xi, ams, vstream) is about 90% of an ingest request; the two writers serialize on Safe.mu. " +
			"The ingest phase carries no query work. The query phase after it reads a locked landmark synopsis of deep, narrow trees.",
	},
	{
		Name:          "mixed-dblp",
		Corpus:        "DBLP",
		TopK:          cfgTopK,
		SnapshotEvery: 64,
		Preload:       mixedPreload,
		Traffic:       "connection A repeats 1 ingest then 4 catalog queries; connection B only queries",
		Why: "Reads next to writes at top-k 50: ingest is about 2/3 top-k processing, a snapshot deep copy runs under the write lock every 64 trees, " +
			"and query time is HTTP, JSON and pattern parsing plus the plan cache. A gain on one side that costs the other shows here.",
	},
	{
		Name:    "cluster-dblp",
		Corpus:  "DBLP",
		TopK:    0,
		Shards:  clusterShards,
		Traffic: "cycles of 96 routed ingests (48 per connection), one /query?fresh=1 after the burst, one with nothing ingested since, then 64 catalog queries",
		Why: "A fresh answer costs shard marshal, transfer, 3 restores and 2 merges of about 115 KB synopses, so the cluster layer dominates; " +
			"a quiet round rebuilds like a busy one, and the merged engine starts with an empty plan cache.",
	},
	{
		Name:         "window-dblp",
		Corpus:       "DBLP",
		TopK:         0,
		WindowSlices: windowSlices,
		WindowEvery:  windowEvery,
		Traffic:      "connection A ingests; connection B queries the catalog",
		Why: "Every 128 trees a seal rebuilds a merge of up to 8 slices, tens of ms against about 56 ms of ingest per slice, " +
			"so the window layer is a large share of the work here and absent from every other workload.",
	},
}

// flags returns the daemon flags of a standalone daemon or of each
// shard: only the settings that differ from the sketchtreed defaults.
func (w workloadSpec) flags() []string {
	var f []string
	if w.Shards > 0 {
		f = append(f, "-role", "shard")
	}
	if w.TopK != cfgTopK {
		f = append(f, "-topk", strconv.Itoa(w.TopK))
	}
	if w.SnapshotEvery > 0 {
		f = append(f, "-snapshot-every", strconv.Itoa(w.SnapshotEvery))
	}
	if w.WindowSlices > 0 {
		f = append(f, "-window-slices", strconv.Itoa(w.WindowSlices), "-window-every", strconv.Itoa(w.WindowEvery))
	}
	return f
}

// coordFlags returns the coordinator's flags (cluster workloads). The
// pull period outlasts any run, so only fresh queries pull.
func (w workloadSpec) coordFlags() []string {
	return []string{"-role", "coordinator", "-topk", strconv.Itoa(w.TopK), "-pull-every", "24h"}
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec is one declared metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics of an untraced run, reported on every
// workload. Each is defined so it is never 0.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ingest_docs_per_s", "1/s", "higher"},
	{"ingest_p50_ms", "ms", "lower"},
	{"query_per_s", "1/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// reportedOnly are end-to-end figures printed where they apply but kept
// out of the result line: they exist on only some workloads, or are 0
// by design (failed_frac), or depend on the seed's answers rather than
// on speed (relerr_mean), or spread between runs by more than any
// bound the result line may carry (the 99th percentiles: when the
// machine slows a run by 15%, its tail grows by 40%).
var reportedOnly = []metricSpec{
	{"ingest_p99_ms", "ms", "lower"},
	{"query_p99_ms", "ms", "lower"},
	{"fresh_busy_p50_ms", "ms", "lower"},
	{"fresh_quiet_p50_ms", "ms", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"relerr_mean", "ratio", "lower"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricSpec{
	{"tree.parse_us", "us", "lower"},
	{"tree.parse_allocs", "count", "lower"},
	{"enum.enum_us", "us", "lower"},
	{"enum.patterns_per_tree", "count", "lower"},
	{"core.add_us", "us", "lower"},
	{"core.add_allocs", "count", "lower"},
	{"core.update_us", "us", "lower"},
	{"topk.process_us", "us", "lower"},
	{"sketchtree.add_wait_us", "us", "lower"},
	{"sketchtree.snapshot_ms", "ms", "lower"},
	{"core.query_hit_us", "us", "lower"},
	{"core.query_miss_us", "us", "lower"},
	{"core.query_allocs", "count", "lower"},
	{"core.plan_hit_ratio", "ratio", "higher"},
	{"server.ingest_us", "us", "lower"},
	{"server.ingest_allocs", "count", "lower"},
	{"server.query_us", "us", "lower"},
	{"server.query_allocs", "count", "lower"},
	{"net.ingest_overhead_us", "us", "lower"},
	{"net.query_overhead_us", "us", "lower"},
	{"server.coord_ingest_us", "us", "lower"},
	{"core.marshal_ms", "ms", "lower"},
	{"core.restore_ms", "ms", "lower"},
	{"core.merge_ms", "ms", "lower"},
	{"core.synopsis_kb", "KiB", "lower"},
	{"cluster.round_busy_ms", "ms", "lower"},
	{"cluster.round_quiet_ms", "ms", "lower"},
	{"cluster.pull_bytes_per_round", "B", "lower"},
	{"cluster.quiet_rebuild_ratio", "ratio", "lower"},
	{"window.add_us", "us", "lower"},
	{"window.seal_ms", "ms", "lower"},
	{"window.rebuild_ms", "ms", "lower"},
	{"window.rebuilds_per_1k_trees", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

func names(specs []metricSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, reportedOnly, perLayer} {
		for _, s := range list {
			if s.Name == name {
				return s.Unit
			}
		}
	}
	return ""
}
