package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// clusterStatus mirrors the GET /cluster response shape (see
// internal/server).
type clusterStatus struct {
	Role   string `json:"role"`
	Status string `json:"status"`
	Shards []struct {
		URL                 string `json:"url"`
		Reachable           bool   `json:"reachable"`
		Stale               bool   `json:"stale"`
		Trees               int64  `json:"trees"`
		Reset               bool   `json:"reset"`
		ConsecutiveFailures int    `json:"consecutive_failures"`
	} `json:"shards"`
	Merged *struct {
		Trees  int64 `json:"trees"`
		Rounds int64 `json:"rounds"`
	} `json:"merged"`
	Fallback bool `json:"fallback"`
}

// daemon is one in-process sketchtreed started through run(), exactly
// as the CLI would.
type daemon struct {
	addr    string
	cancel  context.CancelFunc
	errc    chan error
	out     *bytes.Buffer
	stopped bool
}

// startDaemon boots sketchtreed with args (plus a dynamic port) and
// waits for the ready hook. Daemons must be started one at a time: the
// ready hook is a package global.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	ready := make(chan string, 1)
	readyHook = func(addr string) { ready <- addr }
	defer func() { readyHook = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{cancel: cancel, errc: make(chan error, 1), out: &bytes.Buffer{}}
	go func() { d.errc <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), d.out) }()
	select {
	case d.addr = <-ready:
	case err := <-d.errc:
		t.Fatalf("daemon exited before ready: %v\n%s", err, d.out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	t.Cleanup(func() { d.stop(t) })
	return d
}

// stop drains the daemon and checks it exited cleanly. Idempotent.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if d.stopped {
		return
	}
	d.stopped = true
	d.cancel()
	select {
	case err := <-d.errc:
		if err != nil {
			t.Errorf("daemon exit: %v\n%s", err, d.out.String())
		}
	case <-time.After(15 * time.Second):
		t.Error("daemon did not drain")
	}
}

func getCluster(t *testing.T, base string) clusterStatus {
	t.Helper()
	resp, err := http.Get(base + "/cluster")
	if err != nil {
		t.Fatalf("GET /cluster: %v", err)
	}
	defer resp.Body.Close()
	var cs clusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatalf("decoding /cluster: %v", err)
	}
	return cs
}

// promCounters reads one per-shard counter family from the daemon's
// /metrics, in shard order.
func promCounters(t *testing.T, base, family string) []int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	prom, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out []int64
	for _, line := range strings.Split(string(prom), "\n") {
		if !strings.HasPrefix(line, family+"{shard=") {
			continue
		}
		var v int64
		if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		out = append(out, v)
	}
	return out
}

// shardArgs is the engine shape shared by every daemon in the test
// cluster and the single-node reference.
var shardArgs = []string{"-k", "3", "-s1", "25", "-s2", "5", "-p", "23", "-topk", "0", "-timeout", "30s"}

// clusterCorpus builds n unique single-tree documents whose labels
// vary, so FNV routing spreads them across shards and queries see a
// mix of matching and non-matching trees.
func clusterCorpus(n int) []string {
	docs := make([]string, n)
	for i := range docs {
		docs[i] = fmt.Sprintf("<a><b/><x%d/></a>", i)
	}
	return docs
}

// TestClusterThreeShards is the cluster-mode end-to-end test: three
// shard daemons plus a coordinator, all started through run() as the
// CLI would. It checks routed ingest spreads the corpus, the merged
// synopsis answers bit-identically to a single-node engine fed the
// same corpus, and killing a shard degrades to stale-slice serving
// with no 5xx on /query.
func TestClusterThreeShards(t *testing.T) {
	shards := make([]*daemon, 3)
	urls := make([]string, 3)
	for i := range shards {
		shards[i] = startDaemon(t, shardArgs...)
		urls[i] = "http://" + shards[i].addr
	}
	co := startDaemon(t, append([]string{
		"-role", "coordinator",
		"-shards", strings.Join(urls, ","),
		"-pull-every", "50ms",
	}, shardArgs...)...)
	base := "http://" + co.addr

	// Single-node reference over the same corpus: started with the same
	// engine flags, fed every document directly.
	ref := startDaemon(t, shardArgs...)
	refBase := "http://" + ref.addr

	docs := clusterCorpus(120)
	for _, d := range docs {
		for _, target := range []string{base, refBase} {
			resp, err := http.Post(target+"/ingest", "application/xml", strings.NewReader(d))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest to %s: status %d", target, resp.StatusCode)
			}
		}
	}

	// The pull loop converges on the full corpus.
	deadline := time.Now().Add(15 * time.Second)
	var cs clusterStatus
	for {
		cs = getCluster(t, base)
		if cs.Merged != nil && cs.Merged.Trees == int64(len(docs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("merged state never converged: %+v", cs)
		}
		time.Sleep(25 * time.Millisecond)
	}
	var spread int
	var sum int64
	for _, sh := range cs.Shards {
		if sh.Trees > 0 {
			spread++
		}
		sum += sh.Trees
	}
	if spread < 2 || sum != int64(len(docs)) {
		t.Fatalf("corpus spread %d shards / %d trees, want >=2 shards / %d trees: %+v",
			spread, sum, len(docs), cs.Shards)
	}

	// Merge determinism: coordinator answers must be bit-identical to
	// the single-node reference.
	queries := []string{
		`{"kind":"ordered","pattern":"(a (b))"}`,
		`{"kind":"unordered","pattern":"(a (x3) (b))"}`,
		`{"kind":"ordered","pattern":"(a (b) (x7))","with_error":true}`,
	}
	estimates := make([]float64, len(queries))
	for i, q := range queries {
		resp, body := postJSON(t, base+"/query", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("coordinator query %s: status %d: %s", q, resp.StatusCode, body)
		}
		var got queryResult
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		resp, body = postJSON(t, refBase+"/query", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference query %s: status %d: %s", q, resp.StatusCode, body)
		}
		var want queryResult
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if got.Estimate != want.Estimate {
			t.Errorf("query %s: merged %v, single-node %v (must be bit-identical)",
				q, got.Estimate, want.Estimate)
		}
		if got.StdErr != nil && want.StdErr != nil && *got.StdErr != *want.StdErr {
			t.Errorf("query %s: merged stderr %v, single-node %v", q, *got.StdErr, *want.StdErr)
		}
		estimates[i] = got.Estimate
	}

	// The coordinator exports per-shard pull counters.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(prom, []byte("sketchtree_cluster_pulls_total")) {
		t.Error("/metrics missing sketchtree_cluster_pulls_total")
	}

	// Ingest has stopped, so the 50ms pull rounds are quiet: every shard
	// answers 304, nothing is restored and no merged state is published.
	quietFrom := getCluster(t, base).Merged.Rounds
	restored := promCounters(t, base, "sketchtree_cluster_restores_total")
	unchanged := promCounters(t, base, "sketchtree_cluster_pull_not_modified_total")
	deadline = time.Now().Add(15 * time.Second)
	for {
		now := promCounters(t, base, "sketchtree_cluster_pull_not_modified_total")
		quiet := len(now) == 3
		for i, n := range now {
			quiet = quiet && n >= unchanged[i]+2
		}
		if quiet {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quiet pulls never answered 304: %v -> %v", unchanged, now)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if got := promCounters(t, base, "sketchtree_cluster_restores_total"); fmt.Sprint(got) != fmt.Sprint(restored) {
		t.Errorf("quiet rounds restored synopses: restores %v -> %v", restored, got)
	}
	if got := getCluster(t, base).Merged.Rounds; got != quietFrom {
		t.Errorf("quiet rounds published merged states: rounds %d -> %d", quietFrom, got)
	}

	// Kill shard 2 and wait for the coordinator to notice.
	shards[2].stop(t)
	deadline = time.Now().Add(15 * time.Second)
	for {
		cs = getCluster(t, base)
		if len(cs.Shards) == 3 && !cs.Shards[2].Reachable && cs.Shards[2].Stale {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never marked dead shard: %+v", cs)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if cs.Merged == nil || cs.Merged.Trees != int64(len(docs)) {
		t.Fatalf("merged state shrank after shard loss: %+v", cs.Merged)
	}

	// Stale-slice serving: queries stay 200 and bit-identical.
	for i, q := range queries {
		resp, body := postJSON(t, base+"/query", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s after shard loss: status %d: %s", q, resp.StatusCode, body)
		}
		var got queryResult
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Estimate != estimates[i] {
			t.Errorf("query %s drifted across shard loss: %v -> %v", q, estimates[i], got.Estimate)
		}
	}

	// CI artifact: persist the final cluster status when asked to.
	if out := os.Getenv("CLUSTER_STATUS_OUT"); out != "" {
		data, err := json.MarshalIndent(getCluster(t, base), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("writing %s: %v", out, err)
		}
		t.Logf("wrote cluster status to %s", out)
	}
	// ... and the coordinator's final /metrics exposition.
	if out := os.Getenv("CLUSTER_METRICS_OUT"); out != "" {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		prom, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, prom, 0o644); err != nil {
			t.Fatalf("writing %s: %v", out, err)
		}
		t.Logf("wrote coordinator metrics to %s", out)
	}

	// Graceful coordinator drain (stop is also the test cleanup; doing
	// it explicitly checks the exit path while shards are still up).
	co.stop(t)
	if !strings.Contains(co.out.String(), "merged trees") {
		t.Errorf("coordinator drain output missing merged-trees line:\n%s", co.out.String())
	}
}

// TestClusterRoutedIngestHeader checks the coordinator names the
// owning shard on routed ingests.
func TestClusterRoutedIngestHeader(t *testing.T) {
	sh := startDaemon(t, shardArgs...)
	co := startDaemon(t, append([]string{
		"-role", "coordinator",
		"-shards", "http://" + sh.addr,
		"-pull-every", "50ms",
	}, shardArgs...)...)
	resp, err := http.Post("http://"+co.addr+"/ingest", "application/xml",
		strings.NewReader("<a><b/></a>"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed ingest: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Sketchtree-Shard"); got != "0" {
		t.Errorf("X-Sketchtree-Shard = %q, want 0", got)
	}
	// Coordinator first, then the shard: the coordinator must release
	// its pooled shard connections so the shard drains promptly.
	start := time.Now()
	co.stop(t)
	sh.stop(t)
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("cluster drain took %v; coordinator left the shard waiting on quiet conns", d)
	}
}

// TestClusterFlagErrors checks the cluster-mode flag validation paths.
func TestClusterFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"coordinator without shards", []string{"-role", "coordinator", "-topk", "0"}, "-shards"},
		{"shard with topk", []string{"-role", "shard", "-topk", "10"}, "topk 0"},
		{"coordinator with topk", []string{"-role", "coordinator", "-topk", "10", "-shards", "http://x"}, "topk 0"},
		{"unknown role", []string{"-role", "replica"}, "unknown -role"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), tc.args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
	t.Run("coordinator with preload", func(t *testing.T) {
		f, err := os.CreateTemp(t.TempDir(), "doc*.xml")
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString("<a><b/></a>")
		f.Close()
		err = run(context.Background(), []string{
			"-role", "coordinator", "-topk", "0", "-shards", "http://x", f.Name(),
		}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "preload") {
			t.Fatalf("coordinator with preload = %v, want preload error", err)
		}
	})
}
