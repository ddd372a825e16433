package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},   // 9.5 samples above the median
		{20, 50, true},   // exactly 10 above the median
		{39, 50, true},   // 9.75 above p75
		{40, 75, true},   // 10 above p75
		{99, 75, true},   // 9.9 above p90
		{100, 90, true},  // 10 above p90
		{200, 95, true},  // 10 above p95
		{999, 95, true},  // 9.99 above p99
		{1000, 99, true}, // 10 above p99
		{9999, 99, true},
		{10000, 99.9, true},
		{1000000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := supportedPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestHighestSupportedUpTo(t *testing.T) {
	if p, ok := highestSupportedUpTo(50000, 99); p != 99 || !ok {
		t.Errorf("50000 samples capped at p99: got p%v, %v", p, ok)
	}
	if p, ok := highestSupportedUpTo(500, 99); p != 95 || !ok {
		t.Errorf("500 samples: got p%v, %v; want p95", p, ok)
	}
	if _, ok := highestSupportedUpTo(5, 99); ok {
		t.Error("5 samples support no percentile")
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	lat := make([]time.Duration, 1000)
	for i := range lat {
		// Reverse order: summarize must sort.
		lat[i] = time.Duration(1000-i) * time.Microsecond
	}
	s := summarize(lat)
	if s.N != 1000 || s.P50 != 500*time.Microsecond {
		t.Errorf("n=%d p50=%v; want 1000, 500µs", s.N, s.P50)
	}
	if s.P99P != 99 || s.P99 != 990*time.Microsecond {
		t.Errorf("p99 = p%v %v; want p99 990µs", s.P99P, s.P99)
	}
	if s.TailP != 99 || s.Tail != s.P99 {
		t.Errorf("tail = p%v %v; want the p99", s.TailP, s.Tail)
	}
	if lat[0] != 1000*time.Microsecond {
		t.Error("summarize reordered its input")
	}
	if e := summarize(nil); e.N != 0 || e.P50 != 0 {
		t.Errorf("empty summary = %+v", e)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		status int
		err    error
		want   outcome
	}{
		{200, nil, okOutcome},
		{204, nil, okOutcome},
		{503, nil, refusedOutcome},
		{504, nil, refusedOutcome},
		{400, nil, statusOutcome},
		{413, nil, statusOutcome},
		{500, nil, statusOutcome},
		{502, nil, statusOutcome},
		{301, nil, statusOutcome},
		{200, errors.New("connection reset"), errOutcome},
		{0, errors.New("dial refused"), errOutcome},
	}
	for _, c := range cases {
		if got := classify(c.status, c.err); got != c.want {
			t.Errorf("classify(%d, %v) = %v; want %v", c.status, c.err, got, c.want)
		}
	}
}

func TestTallyFailureAccounting(t *testing.T) {
	var a tally
	for _, o := range []outcome{okOutcome, okOutcome, errOutcome, refusedOutcome, refusedOutcome, statusOutcome} {
		a.add(o)
	}
	a.check(true)
	a.check(false)
	if a.Attempted != 8 {
		t.Fatalf("attempted = %d; want 8", a.Attempted)
	}
	if a.Errors != 1 || a.Refused != 2 || a.BadStatus != 1 || a.Mismatch != 1 {
		t.Errorf("breakdown = %+v", a)
	}
	if a.Failed() != 5 || a.FailedFrac() != 5.0/8 {
		t.Errorf("failed = %d (%v); want 5 (0.625)", a.Failed(), a.FailedFrac())
	}
	var b tally
	b.add(okOutcome)
	b.add(mismatchOutcome)
	a.merge(b)
	if a.Attempted != 10 || a.Failed() != 6 || a.Mismatch != 2 {
		t.Errorf("after merge = %+v", a)
	}
	if (tally{}).FailedFrac() != 0 {
		t.Error("an empty tally has no failure fraction")
	}
}

func TestMetricNameCharset(t *testing.T) {
	good := []string{"setup_s", "ingest_p99_ms", "core.add_us", "window.rebuilds_per_1k_trees", "a", "9x", "a-b.c_d",
		strings.Repeat("x", 64)}
	bad := []string{"", "_lead", ".lead", "-lead", "has space", "per/sec", "p99%", "naïve", "a:b", strings.Repeat("x", 65)}
	for _, n := range good {
		if err := newMetricSet().set(n, 1, "ms", ""); err != nil {
			t.Errorf("%q rejected: %v", n, err)
		}
	}
	for _, n := range bad {
		if err := newMetricSet().set(n, 1, "ms", ""); err == nil {
			t.Errorf("%q accepted", n)
		}
	}
	for _, u := range []string{"", "m s", "seconds-per-op-xy", "µs"} {
		if err := newMetricSet().set("x", 1, u, ""); err == nil {
			t.Errorf("unit %q accepted", u)
		}
	}
	if err := newMetricSet().set("x", 1, "1/s", ""); err != nil {
		t.Errorf("unit 1/s rejected: %v", err)
	}
}

// TestDeclaredMetricsValid holds every declared name and unit to the
// charset and checks no name is declared twice.
func TestDeclaredMetricsValid(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{endToEnd, reportedOnly, perLayer} {
		for _, m := range list {
			if !metricName.MatchString(m.Name) || !metricUnit.MatchString(m.Unit) {
				t.Errorf("%q (%q) outside the charset", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("%s declared twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and
// metrics in step with the ones this program runs and reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range bj.Workloads {
		wl = append(wl, w.Name)
	}
	if !reflect.DeepEqual(wl, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v; servebench runs %v", wl, workloadNames())
	}
	var e2e, pl []metricSpec
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		pl = append(pl, metricSpec{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(pl, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", pl, perLayer)
	}
}

func TestRestrictReportsExactlyDeclared(t *testing.T) {
	m := newMetricSet()
	for _, s := range endToEnd {
		if err := m.set(s.Name, 1.5, s.Unit, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.set("failed_frac", 0, "ratio", ""); err != nil {
		t.Fatal(err)
	}
	got, err := m.restrict(names(endToEnd))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(endToEnd) {
		t.Errorf("restricted to %d metrics; want %d", len(got), len(endToEnd))
	}
	if _, ok := got["failed_frac"]; ok {
		t.Error("a reported-only metric leaked into the result line")
	}
	if _, err := m.restrict([]string{"missing_metric"}); err == nil {
		t.Error("a missing metric must fail the run")
	}
	line, err := json.Marshal(result{Correct: true, Attempted: 3, Metrics: got})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v; want correct, attempted, failed, metrics", keys)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent's end
	}
	got := map[string]layerSelf{}
	for _, l := range selfTimes(spans) {
		got[l.Name] = l
	}
	// Children cover [10,60) and [90,100) of the parent: 60 ns.
	if p := got["parent"]; p.Self != 40 || p.Total != 100 || p.Calls != 1 {
		t.Errorf("parent = %+v; want self 40 of 100", p)
	}
	if c := got["child"]; c.Self != 90 || c.Calls != 3 {
		t.Errorf("child = %+v; want self 90 over 3 calls", c)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	s := tr.begin()
	if id := tr.end(s, "x", 0, 1); id != 0 || len(tr.spans) != 0 {
		t.Errorf("disabled tracer recorded span %d", id)
	}
	on := newTracer(true)
	p := on.reserve("p", 0, 7)
	c := on.end(on.begin(), "c", p, 7)
	on.finish(p)
	if len(on.spans) != 2 || on.spans[c-1].Parent != p || on.spans[p-1].End < on.spans[c-1].End {
		t.Errorf("spans = %+v", on.spans)
	}
}

func TestWorkloadFlags(t *testing.T) {
	want := map[string]string{
		"ingest-treebank": "-topk 0",
		"mixed-dblp":      "-snapshot-every 64",
		"cluster-dblp":    "-role shard -topk 0",
		"window-dblp":     "-topk 0 -window-slices 8 -window-every 128",
	}
	for _, w := range workloads {
		if got := strings.Join(w.flags(), " "); got != want[w.Name] {
			t.Errorf("%s flags %q; want %q", w.Name, got, want[w.Name])
		}
	}
}

func TestPhaseStatsAcrossBoots(t *testing.T) {
	var ps phaseStats
	// Boot 1: 4 samples inside a 2s span (two per 1s window) and one
	// still in flight at the deadline.
	ps.addBoot([]sample{
		{at: 100 * time.Millisecond, lat: 1 * time.Millisecond},
		{at: 900 * time.Millisecond, lat: 3 * time.Millisecond},
		{at: 1100 * time.Millisecond, lat: 5 * time.Millisecond},
		{at: 1900 * time.Millisecond, lat: 7 * time.Millisecond},
		{at: 2100 * time.Millisecond, lat: 100 * time.Millisecond},
	}, 2*time.Second)
	// Boot 2: 2 samples, both in the first window.
	ps.addBoot([]sample{
		{at: 0, lat: 2 * time.Millisecond},
		{at: 500 * time.Millisecond, lat: 4 * time.Millisecond},
	}, 2*time.Second)
	if len(ps.lats) != 6 || ps.span != 4*time.Second || ps.rate() != 1.5 {
		t.Errorf("n=%d span=%v rate=%v; want 6 in 4s = 1.5/s", len(ps.lats), ps.span, ps.rate())
	}
	// Window medians: 1ms, 5ms (boot 1), 2ms (boot 2; its second window is empty).
	if len(ps.p50s) != 3 || ps.p50() != 2*time.Millisecond {
		t.Errorf("p50s=%v p50=%v; want 3 windows, median 2ms", ps.p50s, ps.p50())
	}
	// The tail pools the in-span samples only; 6 of them support no
	// percentile at all.
	if got := summarize(ps.lats); got.N != 6 || got.P99P != 0 || got.TailP != 0 {
		t.Errorf("pooled summary %+v; want 6 samples and no supported percentile", got)
	}
}
