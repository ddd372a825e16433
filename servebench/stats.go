package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// percentileLadder lists the percentiles a timing may report, in tenths
// of a percent, highest first. A timing reports the highest one that
// still has at least minBeyond samples above it. Integer per-mille
// keeps the rank arithmetic exact.
var percentileLadder = []int{999, 990, 950, 900, 750, 500}

// minBeyond is the number of samples that must lie above a reported
// percentile for it to mean anything.
const minBeyond = 10

// rank is the nearest-rank position (1-based) of the pm-per-mille
// percentile among n samples: the smallest rank with at least pm/1000
// of the samples at or below it.
func rank(n, pm int) int {
	r := (pm*n + 999) / 1000
	return min(max(r, 1), n)
}

// beyond is the number of samples above the pm-per-mille percentile.
func beyond(n, pm int) int { return n - rank(n, pm) }

// supportedPercentile returns the highest percentile of the ladder that
// n samples support: at least minBeyond of them above it. ok is false
// when not even the median is supported.
func supportedPercentile(n int) (p float64, ok bool) {
	return highestSupportedUpTo(n, 100)
}

// highestSupportedUpTo is supportedPercentile capped at limit: the
// percentile reported under a metric named for limit (say p99) when the
// samples cannot support limit itself.
func highestSupportedUpTo(n int, limit float64) (float64, bool) {
	for _, pm := range percentileLadder {
		if float64(pm) <= limit*10 && n > 0 && beyond(n, pm) >= minBeyond {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}

// quantile returns the p-th percentile of sorted by the nearest-rank
// rule (p on the ladder's 0.1% grid).
func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), int(math.Round(p*10)))-1]
}

// timing summarizes one kind of request's latencies.
type timing struct {
	N     int
	P50   time.Duration
	Tail  time.Duration // at TailP, the highest percentile N supports
	TailP float64
	P99   time.Duration // at P99P: 99, or the highest supported below it
	P99P  float64
}

func summarize(lat []time.Duration) timing {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	t := timing{N: len(s)}
	if len(s) == 0 {
		return t
	}
	t.P50 = quantile(s, 50)
	if p, ok := supportedPercentile(len(s)); ok {
		t.TailP, t.Tail = p, quantile(s, p)
	}
	if p, ok := highestSupportedUpTo(len(s), 99); ok {
		t.P99P, t.P99 = p, quantile(s, p)
	}
	return t
}

// subWindows is how many equal windows each measured phase of a boot
// is cut into for the median latency.
const subWindows = 2

// phaseStats accumulates one kind of request over every boot of a run.
// Each statistic is chosen to be steady on a shared machine:
//
//   - rate: completions inside the measured spans over the spans' total
//     length, pooled over the boots, so bursty traffic (the cluster
//     cycle) does not quantize it;
//   - p50: the median of the per-window medians, so interference in one
//     window moves it little;
//   - tail: the 99th percentile of every measured sample of the run.
type phaseStats struct {
	span time.Duration
	lats []time.Duration // every sample completed inside a measured span
	p50s []time.Duration // one per window that holds samples
}

// addBoot folds in one boot's samples that completed within [0, span).
// Requests still in flight at the deadline are left out.
func (ps *phaseStats) addBoot(samples []sample, span time.Duration) {
	if span <= 0 {
		return
	}
	ps.span += span
	w := span / subWindows
	win := make([][]time.Duration, subWindows)
	for _, s := range samples {
		if s.at < 0 || s.at >= span {
			continue
		}
		i := min(int(s.at/w), subWindows-1)
		win[i] = append(win[i], s.lat)
		ps.lats = append(ps.lats, s.lat)
	}
	for _, l := range win {
		if len(l) > 0 {
			ps.p50s = append(ps.p50s, summarize(l).P50)
		}
	}
}

func (ps *phaseStats) rate() float64 {
	if ps.span <= 0 {
		return 0
	}
	return float64(len(ps.lats)) / ps.span.Seconds()
}

func (ps *phaseStats) p50() time.Duration { return medianDur(ps.p50s) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat returns the median of xs (the mean of the middle two for
// an even count).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// outcome classifies one attempted operation for failure accounting.
type outcome int

const (
	okOutcome       outcome = iota
	errOutcome              // transport error or unreadable response
	refusedOutcome          // 503 or 504: the daemon shed or timed out the request
	statusOutcome           // any other non-2xx status
	mismatchOutcome         // the reference check disagreed with the daemon
)

// classify maps a response to its outcome. err is the transport error,
// if any; status is ignored when err is set.
func classify(status int, err error) outcome {
	switch {
	case err != nil:
		return errOutcome
	case status == 503 || status == 504:
		return refusedOutcome
	case status < 200 || status > 299:
		return statusOutcome
	}
	return okOutcome
}

// tally counts attempted operations and their failures. Every outcome
// but okOutcome is a failure.
type tally struct {
	Attempted int64
	Errors    int64
	Refused   int64
	BadStatus int64
	Mismatch  int64
}

func (t *tally) add(o outcome) {
	t.Attempted++
	switch o {
	case errOutcome:
		t.Errors++
	case refusedOutcome:
		t.Refused++
	case statusOutcome:
		t.BadStatus++
	case mismatchOutcome:
		t.Mismatch++
	}
}

// check records one reference comparison.
func (t *tally) check(equal bool) {
	if equal {
		t.add(okOutcome)
	} else {
		t.add(mismatchOutcome)
	}
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Errors += o.Errors
	t.Refused += o.Refused
	t.BadStatus += o.BadStatus
	t.Mismatch += o.Mismatch
}

func (t tally) Failed() int64 { return t.Errors + t.Refused + t.BadStatus + t.Mismatch }

// FailedFrac is failed ÷ attempted (0 when nothing was attempted).
func (t tally) FailedFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed()) / float64(t.Attempted)
}

// metricName is the charset every metric name is held to: a letter or
// digit first, then at most 63 letters, digits, '_', '.' or '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricUnit is the charset of a metric's unit.
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is an ordered collection of metrics; the order is the
// printing order.
type metricSet struct {
	names []string
	vals  map[string]metric
	notes map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric, rejecting names and units outside the charset
// and non-finite values.
func (m *metricSet) set(name string, v float64, unit, note string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q outside [A-Za-z0-9_.-]", name)
	}
	if !metricUnit.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q outside [A-Za-z0-9_/%%.-]", name, unit)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s: value %v is not finite", name, v)
	}
	if _, dup := m.vals[name]; !dup {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
	if note != "" {
		m.notes[name] = note
	}
	return nil
}

// result is the final stdout line: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// restrict returns the metrics named in want, failing if any is
// missing: the result line carries exactly the declared metrics.
func (m *metricSet) restrict(want []string) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	for _, name := range want {
		v, ok := m.vals[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = v
	}
	return out, nil
}
