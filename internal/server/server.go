// Package server implements the sketchtreed HTTP query API: a
// Safe-wrapped synopsis served over JSON, with a per-request timeout, a
// concurrency limiter, and graceful drain.
//
// Endpoints:
//
//	POST /query    ordered / unordered / set / expression counts,
//	               optionally with error bars (CI95)
//	POST /ingest   stream one XML tree (or, with ?forest=1, a rooted
//	               forest document) into the synopsis
//	GET  /healthz  liveness + snapshot provenance; 503 while draining
//	GET  /stats    observability snapshot (expvar-style JSON)
//	GET  /metrics  the same data in Prometheus text format
//
// Queries are answered through the Safe read path, so with snapshot
// serving enabled (sketchtreed -snapshot-every) they are lock-free and
// never wait behind an in-flight update.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"sketchtree"
	"sketchtree/internal/cluster"
	"sketchtree/internal/obs"
	"sketchtree/internal/obs/trace"
)

// Options bound a Server's resource use. The zero value selects the
// defaults noted on each field.
type Options struct {
	// Timeout is the per-request budget covering limiter wait, body
	// read, and evaluation; exceeding it answers 504. Default 5s;
	// negative disables.
	Timeout time.Duration

	// MaxConcurrent caps in-flight /query and /ingest requests; excess
	// requests wait (within Timeout) for a slot. Default 64.
	MaxConcurrent int

	// DrainTimeout bounds graceful shutdown: Run answers in-flight
	// requests for at most this long after its context is canceled,
	// then closes remaining connections. Default 10s; negative waits
	// indefinitely.
	DrainTimeout time.Duration

	// MaxIngestBody caps one /ingest request body in bytes; exceeding
	// it answers 413. Default 64 MiB; negative disables the cap.
	MaxIngestBody int64

	// Trace is the flight recorder behind GET /debug/requests. Nil
	// disables tracing: no per-request recorder work, no trace header.
	Trace *trace.Recorder

	// Logger receives structured request/failure logs. Default: a
	// no-op logger that never formats records.
	Logger *slog.Logger

	// Role labels logs, traces and pprof samples ("standalone",
	// "shard", "coordinator"). Default "standalone".
	Role string

	// Window records the sliding-window policy the daemon was
	// configured with — provenance for the coordinator's GET /window
	// aggregation (shards enforce their own policy through
	// Safe.EnableWindow; this field does not enable anything). Nil when
	// no window was requested.
	Window *sketchtree.WindowPolicy
}

const (
	defaultTimeout       = 5 * time.Second
	defaultMaxConcurrent = 64
	defaultDrainTimeout  = 10 * time.Second

	// maxQueryBody bounds a /query request body.
	maxQueryBody = 1 << 20

	// defaultMaxIngestBody bounds an /ingest request body unless
	// Options.MaxIngestBody overrides it.
	defaultMaxIngestBody = 64 << 20

	// maxErrorDrain bounds how much of an unread request body an error
	// response discards to keep the connection reusable. Larger
	// remainders give up and let the connection close — draining them
	// would cost more than a new connection.
	maxErrorDrain = 1 << 20
)

func (o Options) normalize() Options {
	if o.Timeout == 0 {
		o.Timeout = defaultTimeout
	}
	if o.Timeout < 0 {
		o.Timeout = 0
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = defaultMaxConcurrent
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = defaultDrainTimeout
	}
	if o.DrainTimeout < 0 {
		o.DrainTimeout = 0
	}
	if o.MaxIngestBody == 0 {
		o.MaxIngestBody = defaultMaxIngestBody
	}
	if o.MaxIngestBody < 0 {
		o.MaxIngestBody = 0
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	if o.Role == "" {
		o.Role = "standalone"
	}
	return o
}

// Server serves count queries over a shared Safe synopsis.
type Server struct {
	safe     *sketchtree.Safe
	opts     Options
	sem      chan struct{}
	draining atomic.Bool
	mux      *http.ServeMux
	httpm    *obs.HTTPMetrics
	handler  http.Handler
}

// New builds a Server over safe. The caller keeps ownership of safe and
// may update or query it directly alongside the HTTP traffic.
func New(safe *sketchtree.Safe, opts Options) *Server {
	s := &Server{
		safe:  safe,
		opts:  opts.normalize(),
		httpm: obs.NewHTTPMetrics(),
	}
	s.sem = make(chan struct{}, s.opts.MaxConcurrent)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("GET /synopsis", s.handleSynopsis)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /window", s.handleWindow)
	s.mux.Handle("GET /stats", sketchtree.StatsJSONHandler(safe.Stats))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("GET /debug/requests", s.opts.Trace.Handler())
	s.handler = instrument(s.mux, s.opts.Trace, s.httpm, s.opts.Logger, s.opts.Role)
	return s
}

// Handler returns the HTTP handler; use it to mount the API under an
// existing server. Run is the usual entry point.
func (s *Server) Handler() http.Handler { return s.handler }

// handleMetrics serves the engine's Prometheus families followed by the
// per-endpoint/status request counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sketchtree.StatsPromHandler(s.safe.Stats).ServeHTTP(w, r)
	obs.WriteHTTPProm(w, s.httpm.Snapshot())
}

// Run serves the API on ln until ctx is canceled, then drains: new
// connections are refused, /healthz flips to 503, in-flight requests
// are answered (bounded by DrainTimeout), and remaining connections are
// closed. Returns nil after a clean drain.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	sctx := context.Background()
	if s.opts.DrainTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(sctx, s.opts.DrainTimeout)
		defer cancel()
	}
	err := srv.Shutdown(sctx)
	if err != nil {
		srv.Close()
	}
	<-errc // Serve has returned http.ErrServerClosed
	return err
}

// Draining reports whether the server has begun graceful shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }

// serve runs fn under the concurrency limiter and the per-request
// timeout, answering JSON. See serveLimited.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, fn func(ctx context.Context) (any, error)) {
	serveLimited(w, r, s.sem, s.opts.Timeout, fn)
}

// statusError carries an HTTP status and a structured JSON body through
// serveLimited's error path — how /ingest reports partial forest state
// alongside the error. A zero Code selects the default (400, or 504
// when the request budget expired).
type statusError struct {
	Code int
	Body any
	Err  error
}

func (e *statusError) Error() string { return e.Err.Error() }
func (e *statusError) Unwrap() error { return e.Err }

// serveLimited is the request harness shared by the shard Server and
// the Coordinator: it runs fn under the concurrency limiter and the
// per-request timeout, answering JSON. Waiting for a slot answers 503
// when the budget runs out first. fn runs synchronously on the handler
// goroutine (the request body must not be read past the handler's
// return); slow body reads observe the timeout through ctx — see
// ctxReader — and a fn error with the budget exhausted answers 504.
//
// Before writing an error response the unread remainder of the request
// body is drained (up to maxErrorDrain), so a failed request does not
// force the keep-alive connection closed under the next request.
// Timed-out requests skip the drain: their body is stalled and the
// connection is forfeit anyway.
func serveLimited(w http.ResponseWriter, r *http.Request, sem chan struct{}, timeout time.Duration, fn func(ctx context.Context) (any, error)) {
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		httpError(w, r, http.StatusServiceUnavailable, "server at capacity: %v", ctx.Err())
		return
	}
	defer func() { <-sem }()
	v, err := fn(ctx)
	if err != nil {
		if errors.Is(err, errHandled) {
			return
		}
		if ctx.Err() == nil {
			drainBody(r)
		}
		code := http.StatusBadRequest
		if ctx.Err() != nil {
			code = http.StatusGatewayTimeout
			err = fmt.Errorf("request timed out: %w", ctx.Err())
		}
		var se *statusError
		if errors.As(err, &se) {
			if se.Code != 0 {
				code = se.Code
			}
			writeJSONStatus(w, code, se.Body)
			return
		}
		httpError(w, r, code, "%v", err)
		return
	}
	writeJSON(w, v)
}

// drainBody discards the unread remainder of the request body, up to
// maxErrorDrain bytes. Without this, an error response with body bytes
// still in flight makes net/http close the connection (it only
// auto-discards small remainders), killing keep-alive for the client's
// next request.
func drainBody(r *http.Request) {
	_, _ = io.Copy(io.Discard, io.LimitReader(r.Body, maxErrorDrain))
}

// ctxReader fails reads once ctx is done, so a stalled ingest body
// surfaces as a decode error within the request budget.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// healthzResponse is the /healthz body: liveness plus the served
// snapshot's provenance when snapshot serving is on.
type healthzResponse struct {
	Status        string `json:"status"`
	Trees         int64  `json:"trees"`
	Snapshot      bool   `json:"snapshot"`
	SnapshotTrees int64  `json:"snapshot_trees,omitempty"`
	SnapshotAgeMS int64  `json:"snapshot_age_ms,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		if err := json.NewEncoder(w).Encode(healthzResponse{Status: "draining"}); err != nil {
			// Status 503 is already on the wire; nothing recoverable.
			_ = err
		}
		return
	}
	resp := healthzResponse{Status: "ok", Trees: s.safe.TreesProcessed()}
	if trees, age, ok := s.safe.SnapshotStats(); ok {
		resp.Snapshot = true
		resp.SnapshotTrees = trees
		resp.SnapshotAgeMS = age.Milliseconds()
	}
	writeJSON(w, resp)
}

// windowResponse is the GET /window body: whether sliding-window
// serving is on and, if so, the full window section — policy, live
// ring, merged provenance and lifecycle counters. Mirrors GET /cluster
// as the mode's provenance endpoint; the coordinator decodes the same
// struct when aggregating shards.
type windowResponse struct {
	Role    string              `json:"role"`
	Enabled bool                `json:"enabled"`
	Window  *obs.WindowSnapshot `json:"window,omitempty"`
}

// handleWindow serves the sliding-window provenance. Like /stats it
// reads only published atomics, so it bypasses the request limiter.
func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request) {
	resp := windowResponse{Role: s.opts.Role}
	if ws, ok := s.safe.WindowStats(); ok {
		resp.Enabled = true
		resp.Window = ws
	}
	writeJSON(w, resp)
}

// ingestResponse is the /ingest body: the synopsis tree count after the
// ingest completed.
type ingestResponse struct {
	Trees int64 `json:"trees"`
}

// ingestError is the /ingest JSON error body. A forest document that
// fails mid-stream leaves its already-applied trees in the synopsis
// (AddTree's per-tree commits are real state, not a rollback), so the
// client gets the applied count and a partial marker to reconcile.
type ingestError struct {
	Error        string `json:"error"`
	TreesApplied int64  `json:"trees_applied"`
	Partial      bool   `json:"partial"`
	TraceID      string `json:"trace_id,omitempty"`
}

// capReader tracks whether the wrapped http.MaxBytesReader tripped its
// limit, so the handler can answer 413 regardless of how the XML
// decoder wrapped the read error.
type capReader struct {
	r       io.Reader
	tripped bool
}

func (c *capReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			c.tripped = true
		}
	}
	return n, err
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	forest := r.URL.Query().Get("forest") != ""
	s.serve(w, r, func(ctx context.Context) (any, error) {
		rc := http.NewResponseController(w)
		if dl, ok := ctx.Deadline(); ok {
			// A stalled body read blocks inside the connection; the read
			// deadline interrupts it at the budget so the 504 is prompt.
			// Cleared on return — a leftover deadline would fail the next
			// request on this keep-alive connection.
			_ = rc.SetReadDeadline(dl)
			defer rc.SetReadDeadline(time.Time{})
		}
		var src io.Reader = r.Body
		var capr *capReader
		if s.opts.MaxIngestBody > 0 {
			capr = &capReader{r: http.MaxBytesReader(w, r.Body, s.opts.MaxIngestBody)}
			src = capr
		}
		body := &ctxReader{ctx: ctx, r: src}
		tr := trace.FromContext(ctx)
		var applied int64
		var err error
		if forest {
			// Forest parse and apply interleave per tree; one span
			// covers the whole stream (the parse/apply split lives in
			// the engine's stage timers).
			sp := tr.StartSpan("apply")
			applied, err = s.safe.AddXMLForestCount(body)
			tr.EndSpan(sp)
		} else {
			// Safe.AddXML is ParseXML + AddTree; splitting it here puts
			// a span boundary between decode and synopsis update.
			sp := tr.StartSpan("parse")
			var t *sketchtree.Tree
			t, err = sketchtree.ParseXML(body)
			tr.EndSpan(sp)
			if err == nil {
				sp = tr.StartSpan("apply")
				err = s.safe.AddTree(t)
				tr.EndSpan(sp)
			}
		}
		if err != nil {
			code := 0
			if capr != nil && capr.tripped {
				code = http.StatusRequestEntityTooLarge
				err = fmt.Errorf("request body exceeds %d bytes: %w", s.opts.MaxIngestBody, err)
			}
			if forest {
				return nil, &statusError{
					Code: code,
					Body: ingestError{Error: err.Error(), TreesApplied: applied, Partial: applied > 0, TraceID: tr.ID()},
					Err:  err,
				}
			}
			if code != 0 {
				return nil, &statusError{Code: code, Body: errorBody(ctx, err.Error()), Err: err}
			}
			return nil, err
		}
		return ingestResponse{Trees: s.safe.TreesProcessed()}, nil
	})
}

// handleSynopsis serves the synopsis in its serialized binary form —
// the shard half of the cluster's conditional pull protocol (see
// cluster.ServeSynopsis): a strong ETag over the bytes, and a bodiless
// 304 when the coordinator already holds them. The snapshot is taken
// under the read lock; like /stats it bypasses the request limiter so
// periodic coordinator pulls never compete with query traffic for
// slots. X-Sketchtree-Trees is the live tree count read after the
// snapshot, so an ingest in between can make it newer than the body;
// the coordinator counts trees from the restored body instead.
func (s *Server) handleSynopsis(w http.ResponseWriter, r *http.Request) {
	tr := trace.FromContext(r.Context())
	sp := tr.StartSpan("marshal")
	data, err := s.safe.MarshalBinary()
	tr.EndSpan(sp)
	if err != nil {
		httpError(w, r, http.StatusInternalServerError, "serializing synopsis: %v", err)
		return
	}
	w.Header().Set("X-Sketchtree-Trees", strconv.FormatInt(s.safe.TreesProcessed(), 10))
	cluster.ServeSynopsis(w, r, data)
}

// queryRequest is the /query body. Kind selects the estimator; Pattern
// (kind ordered/unordered), Patterns (kind set) and Expr (kind
// expression) carry the query. Patterns are S-expressions ("(A (B))")
// or plain label paths ("A/B/C"). WithError adds the CI95 error bar
// (kinds ordered, unordered, set).
type queryRequest struct {
	Kind      string    `json:"kind"`
	Pattern   string    `json:"pattern,omitempty"`
	Patterns  []string  `json:"patterns,omitempty"`
	Expr      *exprNode `json:"expr,omitempty"`
	WithError bool      `json:"with_error,omitempty"`
}

// exprNode is one node of an expression query: op "count" with a
// pattern, or "add"/"sub"/"mul" with operands l and r.
type exprNode struct {
	Op      string    `json:"op"`
	Pattern string    `json:"pattern,omitempty"`
	L       *exprNode `json:"l,omitempty"`
	R       *exprNode `json:"r,omitempty"`
}

// queryResponse is the /query answer. Snapshot reports whether the Safe
// was in snapshot-serving mode (the answer then reflects the frozen
// synopsis of SnapshotTrees trees, not the live tail).
type queryResponse struct {
	Kind          string      `json:"kind"`
	Estimate      float64     `json:"estimate"`
	StdErr        *float64    `json:"std_err,omitempty"`
	CI95          *[2]float64 `json:"ci95,omitempty"`
	S1            int         `json:"s1,omitempty"`
	S2            int         `json:"s2,omitempty"`
	Snapshot      bool        `json:"snapshot"`
	SnapshotTrees int64       `json:"snapshot_trees,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, func(ctx context.Context) (any, error) {
		var req queryRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("decoding request: %w", err)
		}
		resp, err := answerQuery(ctx, s.safe, &req, s.opts.Role)
		if err != nil {
			return nil, err
		}
		if trees, _, ok := s.safe.SnapshotStats(); ok {
			resp.Snapshot = true
			resp.SnapshotTrees = trees
		}
		return resp, nil
	})
}

// engine is the estimator surface the query path needs. Both
// *sketchtree.Safe (the shard's locked/snapshot path) and a frozen
// *sketchtree.SketchTree (the coordinator's merged synopsis) satisfy
// it, so one query handler serves both roles.
type engine interface {
	CountOrdered(q *sketchtree.Node) (float64, error)
	CountUnordered(q *sketchtree.Node) (float64, error)
	CountOrderedSet(qs []*sketchtree.Node) (float64, error)
	CountOrderedWithError(q *sketchtree.Node) (sketchtree.Estimate, error)
	CountUnorderedWithError(q *sketchtree.Node) (sketchtree.Estimate, error)
	CountOrderedSetWithError(qs []*sketchtree.Node) (sketchtree.Estimate, error)
	EstimateExpression(e sketchtree.Expr) (float64, error)
}

// answerQuery is the query path shared by the shard Server and the
// Coordinator, split into two traced phases: "plan" (JSON → validated
// pattern/expression) and "eval" (the estimator). Evaluation runs under
// pprof labels so CPU profiles segment by endpoint, role and pattern
// size.
func answerQuery(ctx context.Context, eng engine, req *queryRequest, role string) (*queryResponse, error) {
	tr := trace.FromContext(ctx)
	sp := tr.StartSpan("plan")
	b, err := buildQuery(req)
	tr.EndSpan(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.StartSpan("eval")
	var resp *queryResponse
	pprof.Do(ctx, pprof.Labels(
		"endpoint", "/query", "role", role,
		"pattern_size", strconv.Itoa(b.patternEdges)), func(context.Context) {
		resp, err = b.evaluate(eng)
	})
	tr.EndSpan(sp)
	tr.Annotate("kind", req.Kind)
	return resp, err
}

// builtQuery is a parsed and validated query, ready to evaluate
// against any engine.
type builtQuery struct {
	kind      string
	withError bool
	q         *sketchtree.Node   // ordered / unordered
	qs        []*sketchtree.Node // set
	expr      sketchtree.Expr    // expression
	// patternEdges is the total pattern size in edges across the
	// query's patterns (0 for expressions) — the pprof workload label.
	patternEdges int
}

// buildQuery parses the request's patterns into a builtQuery. This is
// the query path's "plan" phase: everything that can fail with 400
// happens here, before any estimator work.
func buildQuery(req *queryRequest) (*builtQuery, error) {
	b := &builtQuery{kind: req.Kind, withError: req.WithError}
	switch req.Kind {
	case "ordered", "unordered":
		q, err := parsePattern(req.Pattern)
		if err != nil {
			return nil, err
		}
		b.q = q
		b.patternEdges = q.Size() - 1
		return b, nil
	case "set":
		if len(req.Patterns) == 0 {
			return nil, errors.New(`kind "set" needs a non-empty "patterns" list`)
		}
		b.qs = make([]*sketchtree.Node, len(req.Patterns))
		for i, p := range req.Patterns {
			q, err := parsePattern(p)
			if err != nil {
				return nil, fmt.Errorf("patterns[%d]: %w", i, err)
			}
			b.qs[i] = q
			b.patternEdges += q.Size() - 1
		}
		return b, nil
	case "expression":
		if req.WithError {
			return nil, errors.New("expression queries have no error bar")
		}
		e, err := buildExpr(req.Expr)
		if err != nil {
			return nil, err
		}
		b.expr = e
		return b, nil
	case "":
		return nil, errors.New(`missing "kind" (ordered, unordered, set or expression)`)
	default:
		return nil, fmt.Errorf("unknown kind %q (ordered, unordered, set or expression)", req.Kind)
	}
}

// evaluate runs the built query against eng. It cannot 400: every
// request-shape error was caught by buildQuery.
func (b *builtQuery) evaluate(eng engine) (*queryResponse, error) {
	resp := &queryResponse{Kind: b.kind}
	switch b.kind {
	case "ordered", "unordered":
		if b.withError {
			var est sketchtree.Estimate
			var err error
			if b.kind == "ordered" {
				est, err = eng.CountOrderedWithError(b.q)
			} else {
				est, err = eng.CountUnorderedWithError(b.q)
			}
			if err != nil {
				return nil, err
			}
			resp.withEstimate(est)
			return resp, nil
		}
		var v float64
		var err error
		if b.kind == "ordered" {
			v, err = eng.CountOrdered(b.q)
		} else {
			v, err = eng.CountUnordered(b.q)
		}
		if err != nil {
			return nil, err
		}
		resp.Estimate = v
		return resp, nil
	case "set":
		if b.withError {
			est, err := eng.CountOrderedSetWithError(b.qs)
			if err != nil {
				return nil, err
			}
			resp.withEstimate(est)
			return resp, nil
		}
		v, err := eng.CountOrderedSet(b.qs)
		if err != nil {
			return nil, err
		}
		resp.Estimate = v
		return resp, nil
	default: // "expression"; buildQuery rejected everything else
		v, err := eng.EstimateExpression(b.expr)
		if err != nil {
			return nil, err
		}
		resp.Estimate = v
		return resp, nil
	}
}

func (r *queryResponse) withEstimate(est sketchtree.Estimate) {
	r.Estimate = est.Value
	se, ci := est.StdErr, est.CI95
	r.StdErr, r.CI95 = &se, &ci
	r.S1, r.S2 = est.S1, est.S2
}

// buildExpr converts the JSON expression tree into a query expression.
func buildExpr(n *exprNode) (sketchtree.Expr, error) {
	if n == nil {
		return nil, errors.New(`kind "expression" needs an "expr" tree`)
	}
	switch n.Op {
	case "count":
		q, err := parsePattern(n.Pattern)
		if err != nil {
			return nil, err
		}
		return sketchtree.Count(q), nil
	case "add", "sub", "mul":
		l, err := buildExpr(n.L)
		if err != nil {
			return nil, fmt.Errorf("%s: l: %w", n.Op, err)
		}
		r, err := buildExpr(n.R)
		if err != nil {
			return nil, fmt.Errorf("%s: r: %w", n.Op, err)
		}
		switch n.Op {
		case "add":
			return sketchtree.Add(l, r), nil
		case "sub":
			return sketchtree.Sub(l, r), nil
		default:
			return sketchtree.Mul(l, r), nil
		}
	default:
		return nil, fmt.Errorf("unknown expr op %q (count, add, sub or mul)", n.Op)
	}
}

// parsePattern accepts a pattern as an S-expression ("(A (B) (C))") or
// a plain label path ("A/B/C"). Extended path syntax ('//', '*') needs
// the structural summary and is not served over HTTP.
func parsePattern(s string) (*sketchtree.Node, error) {
	if s == "" {
		return nil, errors.New("empty pattern")
	}
	if s[0] == '(' {
		return sketchtree.ParsePattern(s)
	}
	ext, err := sketchtree.ParsePath(s)
	if err != nil {
		return nil, err
	}
	return plainChain(ext)
}

// plainChain converts a non-extended path query into a plain pattern.
func plainChain(q *sketchtree.ExtQuery) (*sketchtree.Node, error) {
	if q.Desc || q.Label == sketchtree.Wildcard {
		return nil, errors.New("extended path queries ('//', '*') are not served over HTTP; use a plain path or S-expression")
	}
	n := sketchtree.Pattern(q.Label)
	for _, c := range q.Children {
		cn, err := plainChain(c)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, cn)
	}
	return n, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing recoverable to do.
		_ = err
	}
}

// httpError answers a JSON error body. Every error carries the
// request's trace ID (when tracing is on), so a client-reported
// failure joins against the flight recorder's record of it.
func httpError(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	writeJSONStatus(w, code, errorBody(r.Context(), fmt.Sprintf(format, args...)))
}

// errorBody builds the standard JSON error body: the message plus the
// trace ID carried by ctx, if any.
func errorBody(ctx context.Context, msg string) map[string]string {
	b := map[string]string{"error": msg}
	if id := trace.FromContext(ctx).ID(); id != "" {
		b["trace_id"] = id
	}
	return b
}

// writeJSONStatus answers v as JSON under an explicit status code.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status is already on the wire; nothing recoverable.
		_ = err
	}
}
