package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (nothing inside the program is instrumented).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Req    int64  `json:"request_id"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call, so the same replay can
// run with and without it.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin returns the current span clock (0 when disabled): a span's
// start, stored when end or record is called.
func (t *tracer) begin() int64 {
	if !t.on {
		return 0
	}
	return int64(time.Since(t.t0))
}

// end closes a span opened at start and returns its ID.
func (t *tracer) end(start int64, name string, parent int, req int64) int {
	return t.record(start, t.begin(), name, parent, req)
}

// record stores a span whose end was taken earlier with begin.
func (t *tracer) record(start, end int64, name string, parent int, req int64) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// reserve returns an ID for a parent span whose end is recorded later
// with finish; children opened in between can name it as their parent.
func (t *tracer) reserve(name string, parent int, req int64) int {
	if !t.on {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: now})
	return id
}

func (t *tracer) finish(id int) {
	if !t.on || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// layerSelf is one span name's aggregate: calls, total time, and self
// time (total minus the part of each span its children cover).
type layerSelf struct {
	Name  string
	Calls int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the union of its children's intervals, so
// concurrent children are not subtracted twice.
func selfTimes(spans []span) []layerSelf {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerSelf{}
	var order []string
	for _, s := range spans {
		a, ok := agg[s.Name]
		if !ok {
			a = &layerSelf{Name: s.Name}
			agg[s.Name] = a
			order = append(order, s.Name)
		}
		a.Calls++
		a.Total += s.dur()
		a.Self += s.dur() - covered(s, children[s.ID])
	}
	sort.Strings(order)
	out := make([]layerSelf, len(order))
	for i, n := range order {
		out[i] = *agg[n]
	}
	return out
}

// covered returns how much of parent's interval the children cover,
// counting overlapping children once.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	first := true
	for _, x := range iv {
		if first || x[0] > curHi {
			if !first {
				total += curHi - curLo
			}
			curLo, curHi, first = x[0], x[1], false
			continue
		}
		curHi = max(curHi, x[1])
	}
	if !first {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// writeSpans writes every span as JSON to path.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelf writes the per-layer self-time table.
func printSelf(w io.Writer, workload string, spans []span) {
	for _, l := range selfTimes(spans) {
		fmt.Fprintf(w, "self %s %-34s calls=%-6d total_ms=%-10.3f self_ms=%.3f\n",
			workload, l.Name, l.Calls, ms(l.Total), ms(l.Self))
	}
}
