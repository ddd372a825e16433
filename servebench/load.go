package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one closed-loop client connection: a transport limited to a
// single TCP connection, so numConns clients hold numConns sockets.
type conn struct {
	c    *http.Client
	base string
	rec  recording
	from time.Time // requests sent before this are warm-up: checked, not timed
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &conn{c: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// recording is what one connection observed.
type recording struct {
	ingest, query, freshBusy, freshQuiet []sample
	tally                                tally
	acked                                []int // ingest document sequence numbers acknowledged, in send order
}

// sample is one timed request: its latency and when it completed,
// measured from the start of its phase's measured part.
type sample struct{ at, lat time.Duration }

// post sends one request and reads the whole response; the latency
// covers sending the request through reading the last body byte.
func (c *conn) post(path string, body []byte) (status int, resp []byte, lat time.Duration, err error) {
	start := time.Now()
	r, err := c.c.Post(c.base+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	resp, err = io.ReadAll(r.Body)
	r.Body.Close()
	return r.StatusCode, resp, time.Since(start), err
}

// ingest posts document seq and records the outcome.
func (c *conn) ingest(in *inputs, seq int) {
	doc, _ := in.doc(seq)
	timed := !time.Now().Before(c.from)
	status, _, lat, err := c.post("/ingest", doc)
	o := classify(status, err)
	c.rec.tally.add(o)
	if o == okOutcome {
		c.rec.acked = append(c.rec.acked, seq)
		if timed {
			c.rec.ingest = append(c.rec.ingest, sample{time.Since(c.from), lat})
		}
	}
}

// query posts catalog entry i to path and records the outcome under
// kind: "query", "fresh_busy" or "fresh_quiet".
func (c *conn) query(in *inputs, i int, path, kind string) {
	timed := !time.Now().Before(c.from)
	status, body, lat, err := c.post(path, in.Catalog[i].Body)
	o := classify(status, err)
	if o == okOutcome && len(body) == 0 {
		o = errOutcome
	}
	c.rec.tally.add(o)
	if o != okOutcome || !timed {
		return
	}
	smp := sample{time.Since(c.from), lat}
	switch kind {
	case "fresh_busy":
		c.rec.freshBusy = append(c.rec.freshBusy, smp)
	case "fresh_quiet":
		c.rec.freshQuiet = append(c.rec.freshQuiet, smp)
	default:
		c.rec.query = append(c.rec.query, smp)
	}
}

// answer asks catalog entry i (untimed) and decodes the estimate.
func (c *conn) answer(in *inputs, i int, path string) (answer, outcome) {
	status, body, _, err := c.post(path, in.Catalog[i].Body)
	o := classify(status, err)
	var a answer
	if o == okOutcome {
		if json.Unmarshal(body, &a) != nil {
			o = errOutcome
		}
	}
	return a, o
}

// get fetches path and returns the body, classifying the outcome.
func (c *conn) get(path string) ([]byte, outcome) {
	r, err := c.c.Get(c.base + path)
	if err != nil {
		return nil, errOutcome
	}
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	return body, classify(r.StatusCode, err)
}

// phase runs fn once per connection concurrently and waits for all.
func phase(conns []*conn, fn func(i int, c *conn)) {
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			fn(i, c)
		}(i, c)
	}
	wg.Wait()
}

// traffic is what a workload's load phase measured.
type traffic struct {
	ingestSpan time.Duration // length of the measured part of the ingest phase
	querySpan  time.Duration
	// ingestOrder is the acknowledged document sequence where order
	// matters (a single writer connection); nil when it does not.
	ingestOrder []int
}

// warmup precedes each measured phase: its requests are sent, checked
// and fed to the reference like any other, but not timed, so the
// figures describe warm daemons and a warm client.
const warmup = 500 * time.Millisecond

// startPhase marks the measured part of a phase on every connection:
// it begins after the warm-up and ends d later.
func startPhase(conns []*conn, d time.Duration) (stop time.Time) {
	from := time.Now().Add(warmup)
	for _, c := range conns {
		c.from = from
	}
	return from.Add(d)
}

// drive runs the workload's closed-loop traffic: d measured, plus the
// warm-up before each phase.
func drive(spec workloadSpec, in *inputs, conns []*conn, d time.Duration) traffic {
	switch spec.Name {
	case "ingest-treebank":
		return driveIngestThenQuery(in, conns, d)
	case "cluster-dblp":
		return driveCluster(in, conns, d)
	default: // mixed-dblp, window-dblp: connection 0 writes, the others read
		perWrite := 0 // queries connection 0 sends after each ingest
		if spec.Name == "mixed-dblp" {
			perWrite = 4
		}
		return driveWriterReaders(in, conns, d, perWrite)
	}
}

// driveIngestThenQuery sends ingests from every connection for half of
// d, then catalog queries from every connection for the other half.
func driveIngestThenQuery(in *inputs, conns []*conn, d time.Duration) traffic {
	var next atomic.Int64
	stop := startPhase(conns, d/2)
	phase(conns, func(_ int, c *conn) {
		for time.Now().Before(stop) {
			c.ingest(in, int(next.Add(1)-1))
		}
	})
	stop = startPhase(conns, d-d/2)
	phase(conns, func(i int, c *conn) {
		draw := in.drawer(uint64(i))
		for time.Now().Before(stop) {
			c.query(in, draw(), "/query", "query")
		}
	})
	return traffic{ingestSpan: d / 2, querySpan: d - d/2}
}

// driveWriterReaders has connection 0 ingest in order, with perWrite
// catalog queries after each ingest, while the other connections only
// query.
func driveWriterReaders(in *inputs, conns []*conn, d time.Duration, perWrite int) traffic {
	stop := startPhase(conns, d)
	phase(conns, func(i int, c *conn) {
		draw := in.drawer(uint64(i))
		for seq := 0; time.Now().Before(stop); {
			if i == 0 {
				c.ingest(in, seq)
				seq++
				for j := 0; j < perWrite; j++ {
					c.query(in, draw(), "/query", "query")
				}
				continue
			}
			c.query(in, draw(), "/query", "query")
		}
	})
	return traffic{ingestSpan: d, querySpan: d, ingestOrder: conns[0].rec.acked}
}

// Cluster cycle shape.
const (
	clusterBurst   = 96 // routed ingests per cycle, split over the connections
	clusterQueries = 64 // catalog queries per cycle, split likewise
)

// driveCluster repeats the cluster cycle until d has passed: a burst of
// routed ingests, a fresh query after it (busy round), a fresh query
// with nothing ingested since (quiet round), then catalog queries.
// Connection 0 sends the fresh queries while the others wait, so each
// round is timed alone.
func driveCluster(in *inputs, conns []*conn, d time.Duration) traffic {
	var next atomic.Int64
	draws := make([]func() int, len(conns))
	for i := range draws {
		draws[i] = in.drawer(uint64(i))
	}
	stop := startPhase(conns, d)
	for time.Now().Before(stop) {
		phase(conns, func(_ int, c *conn) {
			for j := 0; j < clusterBurst/len(conns); j++ {
				c.ingest(in, int(next.Add(1)-1))
			}
		})
		c := conns[0]
		c.query(in, draws[0](), "/query?fresh=1", "fresh_busy")
		c.query(in, draws[0](), "/query?fresh=1", "fresh_quiet")
		phase(conns, func(i int, c *conn) {
			for j := 0; j < clusterQueries/len(conns); j++ {
				c.query(in, draws[i](), "/query", "query")
			}
		})
	}
	return traffic{ingestSpan: d, querySpan: d}
}
