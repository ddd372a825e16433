package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"

	"sketchtree"
)

func testConfig() sketchtree.Config {
	cfg := sketchtree.DefaultConfig()
	cfg.MaxPatternEdges = 3
	cfg.S1 = 50
	cfg.S2 = 5
	cfg.VirtualStreams = 23
	cfg.TopK = 0
	cfg.Seed = 7
	return cfg
}

func newTestServer(t *testing.T, opts Options) (*sketchtree.Safe, *Server, *httptest.Server) {
	t.Helper()
	safe, err := sketchtree.NewSafe(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	docs := []string{
		"<a><b/><c/></a>",
		"<a><b/><b/></a>",
		"<a><c/><b/></a>",
	}
	for _, d := range docs {
		if err := safe.AddXML(strings.NewReader(d)); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(safe, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return safe, srv, ts
}

func postQuery(t *testing.T, url string, req any) (*http.Response, queryResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, qr
}

func TestQueryKinds(t *testing.T) {
	_, _, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		req  queryRequest
		want float64 // exact count; the estimate must land within ±2
	}{
		{"ordered sexp", queryRequest{Kind: "ordered", Pattern: "(a (b))"}, 4},
		{"ordered path", queryRequest{Kind: "ordered", Pattern: "a/b"}, 4},
		{"unordered", queryRequest{Kind: "unordered", Pattern: "(a (b) (c))"}, 2},
		{"set", queryRequest{Kind: "set", Patterns: []string{"a/b", "a/c"}}, 6},
		{"expression", queryRequest{Kind: "expression", Expr: &exprNode{
			Op: "add",
			L:  &exprNode{Op: "count", Pattern: "a/b"},
			R:  &exprNode{Op: "count", Pattern: "a/c"},
		}}, 6},
		{"expression sub", queryRequest{Kind: "expression", Expr: &exprNode{
			Op: "sub",
			L:  &exprNode{Op: "count", Pattern: "a/b"},
			R:  &exprNode{Op: "count", Pattern: "a/c"},
		}}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, qr := postQuery(t, ts.URL, tc.req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if qr.Kind != tc.req.Kind {
				t.Errorf("kind %q, want %q", qr.Kind, tc.req.Kind)
			}
			if qr.Estimate < tc.want-2 || qr.Estimate > tc.want+2 {
				t.Errorf("estimate %v, want ≈ %v", qr.Estimate, tc.want)
			}
			if qr.Snapshot {
				t.Error("snapshot flag set without snapshot serving")
			}
		})
	}
}

func TestQueryWithError(t *testing.T) {
	_, _, ts := newTestServer(t, Options{})
	resp, qr := postQuery(t, ts.URL, queryRequest{Kind: "ordered", Pattern: "a/b", WithError: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if qr.StdErr == nil || qr.CI95 == nil {
		t.Fatalf("missing error bar: %+v", qr)
	}
	if qr.CI95[0] > qr.Estimate || qr.CI95[1] < qr.Estimate {
		t.Errorf("estimate %v outside its own CI95 %v", qr.Estimate, *qr.CI95)
	}
	if qr.S1 != 50 || qr.S2 != 5 {
		t.Errorf("s1/s2 = %d/%d, want 50/5", qr.S1, qr.S2)
	}
}

func TestQueryBadRequests(t *testing.T) {
	_, _, ts := newTestServer(t, Options{})
	bad := []queryRequest{
		{},                                  // missing kind
		{Kind: "bogus"},                     // unknown kind
		{Kind: "ordered", Pattern: ""},      // empty pattern
		{Kind: "ordered", Pattern: "(a (b"}, // unbalanced S-expression
		{Kind: "ordered", Pattern: "a//b"},  // extended path
		{Kind: "ordered", Pattern: "a/*"},   // wildcard path
		{Kind: "set"},                       // empty set
		{Kind: "expression"},                // missing expr
		{Kind: "expression", Expr: &exprNode{Op: "div"}}, // unknown op
		{Kind: "expression", Expr: &exprNode{Op: "add"}}, // missing operands
		{Kind: "expression", WithError: true, Expr: &exprNode{Op: "count", Pattern: "a/b"}},
	}
	for i, req := range bad {
		resp, _ := postQuery(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad[%d] %+v: status %d, want 400", i, req, resp.StatusCode)
		}
	}
	// Unknown fields are rejected too (catches client typos).
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"kind":"ordered","pattren":"a/b"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

func TestIngestEndpoint(t *testing.T) {
	safe, _, ts := newTestServer(t, Options{})
	before := safe.TreesProcessed()
	resp, err := http.Post(ts.URL+"/ingest", "application/xml",
		strings.NewReader("<a><b/></a>"))
	if err != nil {
		t.Fatal(err)
	}
	var ir ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ir.Trees != before+1 {
		t.Fatalf("single ingest: status %d, trees %d (want %d)", resp.StatusCode, ir.Trees, before+1)
	}
	resp, err = http.Post(ts.URL+"/ingest?forest=1", "application/xml",
		strings.NewReader("<forest><a><b/></a><a><c/></a><a><b/><c/></a></forest>"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ir.Trees != before+4 {
		t.Fatalf("forest ingest: status %d, trees %d (want %d)", resp.StatusCode, ir.Trees, before+4)
	}
	// Malformed XML is a client error.
	resp, err = http.Post(ts.URL+"/ingest", "application/xml", strings.NewReader("<a><b></a>"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed ingest: status %d, want 400", resp.StatusCode)
	}
}

func TestHealthzAndObservability(t *testing.T) {
	safe, _, ts := newTestServer(t, Options{})
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}
	resp, body := get("/healthz")
	var hz healthzResponse
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" || hz.Trees != 3 || hz.Snapshot {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, hz)
	}
	if err := safe.EnableSnapshots(sketchtree.SnapshotPolicy{EveryTrees: 10}); err != nil {
		t.Fatal(err)
	}
	defer safe.DisableSnapshots()
	_, body = get("/healthz")
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if !hz.Snapshot || hz.SnapshotTrees != 3 {
		t.Fatalf("healthz after EnableSnapshots: %+v", hz)
	}
	// Queries now carry snapshot provenance.
	_, qr := postQuery(t, ts.URL, queryRequest{Kind: "ordered", Pattern: "a/b"})
	if !qr.Snapshot || qr.SnapshotTrees != 3 {
		t.Fatalf("query snapshot provenance: %+v", qr)
	}

	resp, body = get("/stats")
	if resp.StatusCode != http.StatusOK || !json.Valid(body) {
		t.Fatalf("/stats: %d, valid JSON = %v", resp.StatusCode, json.Valid(body))
	}
	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "sketchtree_trees_total") {
		t.Fatalf("/metrics: %d\n%s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "sketchtree_plan_cache_hits_total") {
		t.Error("/metrics missing plan-cache counters")
	}
}

// TestLimiterSaturated fills the single request slot directly and
// checks a query gives up waiting with 503 within its budget, then
// succeeds once the slot frees.
func TestLimiterSaturated(t *testing.T) {
	_, srv, ts := newTestServer(t, Options{MaxConcurrent: 1, Timeout: 100 * time.Millisecond})
	srv.sem <- struct{}{} // occupy the only slot
	resp, _ := postQuery(t, ts.URL, queryRequest{Kind: "ordered", Pattern: "a/b"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while saturated: status %d, want 503", resp.StatusCode)
	}
	<-srv.sem
	resp, _ = postQuery(t, ts.URL, queryRequest{Kind: "ordered", Pattern: "a/b"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after slot freed: status %d, want 200", resp.StatusCode)
	}
}

// TestIngestTimeout stalls an ingest body mid-document and checks the
// request answers 504 at its budget rather than hanging, and that the
// slot frees for later requests.
func TestIngestTimeout(t *testing.T) {
	_, _, ts := newTestServer(t, Options{MaxConcurrent: 1, Timeout: 200 * time.Millisecond})
	pr, pw := io.Pipe()
	ingestDone := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/ingest", "application/xml", pr)
		if err != nil {
			t.Logf("ingest transport error: %v", err)
			ingestDone <- nil
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ingestDone <- resp
	}()
	// The write is accepted only once the handler is parsing the body,
	// so the handler provably holds the slot; then the body stalls.
	if _, err := pw.Write([]byte("<a><b/>")); err != nil {
		t.Fatal(err)
	}
	ingest := <-ingestDone
	pw.CloseWithError(fmt.Errorf("test: abandon ingest"))
	if ingest == nil {
		t.Fatal("ingest request failed at transport level")
	}
	if ingest.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled ingest: status %d, want 504", ingest.StatusCode)
	}
	// The slot was released with the response.
	resp, _ := postQuery(t, ts.URL, queryRequest{Kind: "ordered", Pattern: "a/b"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after timeout: status %d, want 200", resp.StatusCode)
	}
}

// TestIngestBodyCap checks /ingest rejects oversized bodies with 413
// instead of streaming them unbounded into the synopsis (pre-fix the
// same request ingested fine and answered 200).
func TestIngestBodyCap(t *testing.T) {
	safe, _, ts := newTestServer(t, Options{MaxIngestBody: 1024})
	before := safe.TreesProcessed()
	var b strings.Builder
	b.WriteString("<a>")
	for b.Len() < 4096 {
		b.WriteString("<b/>")
	}
	b.WriteString("</a>")
	resp, err := http.Post(ts.URL+"/ingest", "application/xml", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: status %d, want 413: %s", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("413 body not a JSON error: %s", body)
	}
	if got := safe.TreesProcessed(); got != before {
		t.Errorf("oversized ingest applied state: %d trees, want %d", got, before)
	}
	// A body under the cap still ingests.
	resp, err = http.Post(ts.URL+"/ingest", "application/xml", strings.NewReader("<a><b/></a>"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small ingest after cap: status %d, want 200", resp.StatusCode)
	}
}

// TestForestPartialIngestError aborts a forest mid-document and checks
// the error body reports the applied prefix: AddTree commits per tree,
// so the applied trees are real synopsis state the client must be able
// to reconcile (pre-fix the error body had no applied count).
func TestForestPartialIngestError(t *testing.T) {
	safe, _, ts := newTestServer(t, Options{})
	before := safe.TreesProcessed()
	// Two complete trees, then a document truncated mid-stream.
	resp, err := http.Post(ts.URL+"/ingest?forest=1", "application/xml",
		strings.NewReader("<forest><a><b/></a><a><c/></a><a><b/>"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("aborted forest: status %d, want 400: %s", resp.StatusCode, body)
	}
	var e struct {
		Error        string `json:"error"`
		TreesApplied int64  `json:"trees_applied"`
		Partial      bool   `json:"partial"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decoding error body %q: %v", body, err)
	}
	if e.Error == "" || e.TreesApplied != 2 || !e.Partial {
		t.Fatalf("error body %+v, want trees_applied=2 partial=true", e)
	}
	if got := safe.TreesProcessed(); got != before+2 {
		t.Errorf("synopsis has %d trees, want %d (the applied prefix)", got, before+2)
	}
	// A forest that fails before any tree applies is not partial.
	resp, err = http.Post(ts.URL+"/ingest?forest=1", "application/xml",
		strings.NewReader("<forest><a><b/>"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decoding error body %q: %v", body, err)
	}
	if e.TreesApplied != 0 || e.Partial {
		t.Errorf("empty-prefix abort: %+v, want trees_applied=0 partial=false", e)
	}
}

// TestErrorResponseKeepsConnectionAlive sends a failing ingest with a
// large unread remainder, then a healthy request on the same
// connection. Pre-fix the handler returned without draining the body;
// with ~512 KiB left unread net/http gives up (its auto-discard stops
// at 256 KiB) and closes the keep-alive connection.
func TestErrorResponseKeepsConnectionAlive(t *testing.T) {
	_, _, ts := newTestServer(t, Options{})
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	// Malformed XML up front: the decoder fails within its first buffer,
	// leaving the ~512 KiB remainder unread by the handler.
	bad := "<a><b></a>" + strings.Repeat(" ", 512<<10)
	resp, err := client.Post(ts.URL+"/ingest", "application/xml", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ingest: status %d, want 400", resp.StatusCode)
	}
	if resp.Close {
		t.Fatal("server closed the keep-alive connection after the failed request")
	}

	// The next request must reuse the same connection.
	var reused bool
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request: status %d, want 200", resp.StatusCode)
	}
	if !reused {
		t.Error("follow-up request did not reuse the connection")
	}
}

// TestIngestClearsReadDeadline checks a timed ingest does not leave its
// read deadline armed on the keep-alive connection: a later request on
// the same connection, arriving after the first request's deadline has
// passed, must still be served.
func TestIngestClearsReadDeadline(t *testing.T) {
	_, _, ts := newTestServer(t, Options{Timeout: 250 * time.Millisecond})
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	resp, err := client.Post(ts.URL+"/ingest", "application/xml", strings.NewReader("<a><b/></a>"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d, want 200", resp.StatusCode)
	}
	// Wait out the first request's deadline, then reuse the connection.
	time.Sleep(400 * time.Millisecond)
	resp, err = client.Post(ts.URL+"/ingest", "application/xml", strings.NewReader("<a><c/></a>"))
	if err != nil {
		t.Fatalf("second ingest on reused connection: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second ingest: status %d, want 200", resp.StatusCode)
	}
}

// TestSynopsisEndpoint pulls the serialized synopsis and checks a
// restored engine answers bit-identically — the shard half of the
// cluster pull/merge protocol.
func TestSynopsisEndpoint(t *testing.T) {
	safe, _, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/synopsis")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/synopsis: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Sketchtree-Trees"); got != "3" {
		t.Errorf("X-Sketchtree-Trees = %q, want 3", got)
	}
	st, err := sketchtree.Restore(data)
	if err != nil {
		t.Fatalf("restoring pulled synopsis: %v", err)
	}
	if st.TreesProcessed() != 3 {
		t.Errorf("restored trees = %d, want 3", st.TreesProcessed())
	}
	q, err := sketchtree.ParsePattern("(a (b))")
	if err != nil {
		t.Fatal(err)
	}
	want, err := safe.CountOrdered(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.CountOrdered(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("restored estimate %v != live %v", got, want)
	}
}

// TestSynopsisConditionalGet pins the shard half of the cluster pull
// protocol: a strong ETag that is the SHA-256 of the exact body, a
// bodiless 304 for a matching If-None-Match, and a new tag (with the
// full body) once the synopsis changes.
func TestSynopsisConditionalGet(t *testing.T) {
	safe, _, ts := newTestServer(t, Options{})
	get := func(inm string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/synopsis", nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	resp, body := get("")
	sum := sha256.Sum256(body)
	tag := `"` + hex.EncodeToString(sum[:]) + `"`
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != tag {
		t.Fatalf("status %d, ETag %q; want 200 and %q", resp.StatusCode, resp.Header.Get("ETag"), tag)
	}
	want, err := safe.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("/synopsis body differs from MarshalBinary")
	}

	resp, body = get(tag)
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("matching If-None-Match: status %d with %d body bytes, want a bodiless 304",
			resp.StatusCode, len(body))
	}

	if err := safe.AddXML(strings.NewReader("<a><c/></a>")); err != nil {
		t.Fatal(err)
	}
	resp, body = get(tag)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("after ingest: status %d with %d body bytes, want 200 with the synopsis",
			resp.StatusCode, len(body))
	}
	if got := resp.Header.Get("ETag"); got == tag || got == "" {
		t.Fatalf("after ingest: ETag %q, want a new tag", got)
	}
}
