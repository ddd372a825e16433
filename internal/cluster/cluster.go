// Package cluster turns sketchtreed daemons into a sharded cluster.
//
// The design exploits the paper's central property: AMS synopses are
// linear projections of the stream, so shard synopses built from the
// same Config (including Seed, with top-k tracking off) merge cell-wise
// into exactly the synopsis of the whole stream — bit-deterministic,
// independent of how documents were routed.
//
// Topology: N ingest shards (ordinary sketchtreed daemons) each own a
// slice of the document stream; a coordinator routes POST /ingest by
// document hash, periodically pulls each shard's serialized synopsis
// (GET /synopsis, the golden-pinned MarshalBinary format), merges the
// pulls in shard order, and publishes the result for lock-free query
// serving.
//
// Pulls are conditional. A shard tags its synopsis with a strong ETag,
// the SHA-256 of the exact bytes (ServeSynopsis), and the coordinator
// sends back the tag of the bytes it last restored in If-None-Match. An
// unchanged shard answers 304 with no body, and a round in which every
// shard answered 304 restores and rebuilds nothing. Being derived from
// content, the tag needs no invalidation rule: any change to the
// synopsis — adds, removes, window rotation, a restart — changes it.
//
// Freshness and failure: answers come from the best state the
// coordinator has now, with explicit provenance about how stale it is.
// A down shard degrades to serving the last synopsis pulled from it
// (its slice of the counts freezes, nothing 5xxes); pulls retry with
// exponential backoff and the per-shard state — reachable, last pull
// time, trees, consecutive failures — is surfaced on GET /cluster.
package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sketchtree"
	"sketchtree/internal/obs"
	"sketchtree/internal/obs/trace"
)

// Config describes cluster membership and the pull/merge policy. The
// zero value of every optional field selects the default noted on it.
type Config struct {
	// Shards lists the shard base URLs ("http://host:port"; a bare
	// "host:port" is http shorthand). The slice index is the shard's
	// identity for routing and status.
	Shards []string

	// PullEvery is the synopsis pull period. Default 1s.
	PullEvery time.Duration

	// PullTimeout bounds one shard pull. Default 5s.
	PullTimeout time.Duration

	// RetryBackoff is the delay before re-trying a failed shard,
	// doubling per consecutive failure up to MaxBackoff. Default
	// PullEvery.
	RetryBackoff time.Duration

	// MaxBackoff caps the per-shard retry delay. Default 30s.
	MaxBackoff time.Duration

	// MaxSynopsisBytes bounds one pulled synopsis. Default 1 GiB.
	MaxSynopsisBytes int64

	// Client issues the pull requests. Default: a dedicated
	// http.Client (the per-pull budget comes from PullTimeout).
	Client *http.Client

	// Metrics receives per-shard pull accounting; nil disables.
	Metrics *obs.ClusterMetrics

	// Trace records each pull/merge round in the flight recorder's
	// background ring; nil disables. Rounds triggered by a traced
	// request (/query?fresh=1) record into that request's trace
	// instead.
	Trace *trace.Recorder

	// Logger receives structured pull-failure and publish logs.
	// Default: a no-op logger.
	Logger *slog.Logger
}

const (
	defaultPullEvery        = time.Second
	defaultPullTimeout      = 5 * time.Second
	defaultMaxBackoff       = 30 * time.Second
	defaultMaxSynopsisBytes = 1 << 30
)

func (c Config) normalize() Config {
	if c.PullEvery <= 0 {
		c.PullEvery = defaultPullEvery
	}
	if c.PullTimeout <= 0 {
		c.PullTimeout = defaultPullTimeout
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = c.PullEvery
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = defaultMaxBackoff
	}
	if c.MaxSynopsisBytes <= 0 {
		c.MaxSynopsisBytes = defaultMaxSynopsisBytes
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Route returns the index of the shard owning a document: a 64-bit
// FNV-1a hash of the raw document bytes, mod n. Deterministic, so a
// re-sent document always lands on the same shard.
func Route(doc []byte, n int) int {
	h := fnv.New64a()
	h.Write(doc)
	return int(h.Sum64() % uint64(n))
}

// ShardStatus is one shard's provenance within the cluster status: the
// freshness and reachability of the slice it contributes to merged
// answers.
type ShardStatus struct {
	URL string `json:"url"`

	// Reachable reports whether the most recent pull attempt
	// succeeded. False before the first attempt completes.
	Reachable bool `json:"reachable"`

	// Stale marks a shard whose slice is being served from an earlier
	// successful pull because the shard is currently unreachable.
	Stale bool `json:"stale"`

	// Trees is the tree count of the synopsis last restored from the
	// shard — exactly the slice merged answers include.
	Trees int64 `json:"trees"`

	// Reset marks a shard whose tree count fell from one restored pull
	// to the next: it restarted empty or lost documents, and those
	// documents are gone from merged counts too. It stays set for the
	// coordinator's lifetime (sketchtree_cluster_shard_resets_total
	// counts the events). A shard that removes documents or expires
	// window slices lowers its count legitimately and is flagged too.
	Reset bool `json:"reset"`

	// LastPullAgeMS is the age of the last successful pull in
	// milliseconds; -1 when the shard has never been pulled.
	LastPullAgeMS int64 `json:"last_pull_age_ms"`

	// ConsecutiveFailures counts pull failures since the last success.
	ConsecutiveFailures int `json:"consecutive_failures"`

	// LastError is the most recent pull failure, cleared on success.
	LastError string `json:"last_error,omitempty"`
}

// Serving is a published merged synopsis: the frozen engine answering
// queries plus its provenance. Never mutated after publication, so any
// number of readers may query Tree concurrently without locking.
type Serving struct {
	// Tree is the merged synopsis, frozen.
	Tree *sketchtree.SketchTree
	// Trees is the total tree count across the merged shard pulls.
	Trees int64
	// Built is when this merged state was published.
	Built time.Time
	// Rounds counts merged states published so far (including this
	// one).
	Rounds int64
}

// shardState is the puller's book-keeping for one shard. Guarded by
// Puller.mu.
type shardState struct {
	url      string
	st       *sketchtree.SketchTree // last restored synopsis, nil before first; never mutated
	etag     string                 // ETag of the bytes st was restored from
	trees    int64                  // st's tree count
	reset    bool                   // the tree count has fallen between pulls
	lastPull time.Time              // last successful pull
	nextTry  time.Time              // earliest next attempt (backoff)
	failures int                    // consecutive failures
	lastErr  error
	gen      int64 // bumped per restored (200) pull; drives rebuilds
}

// Puller owns the coordinator's pull/merge loop and the published
// merged state. Construct with New; do not copy.
type Puller struct {
	cfg     Config
	mu      sync.Mutex // guards shards
	shards  []*shardState
	serving atomic.Pointer[Serving]
	rounds  atomic.Int64
	builtAt atomic.Int64 // gen sum the current Serving was built from
}

// New validates cfg and creates a Puller. It performs no I/O; call Run
// (or PullNow) to start pulling.
func New(cfg Config) (*Puller, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	cfg = cfg.normalize()
	p := &Puller{cfg: cfg, shards: make([]*shardState, len(cfg.Shards))}
	for i, u := range cfg.Shards {
		if u == "" {
			return nil, fmt.Errorf("cluster: shard %d has an empty URL", i)
		}
		norm, err := normalizeShardURL(u)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		p.shards[i] = &shardState{url: norm}
	}
	return p, nil
}

// normalizeShardURL validates a shard base URL at configuration time,
// so a typo fails daemon startup instead of every routed request. A
// scheme-less "host:port" is accepted as shorthand for http.
func normalizeShardURL(raw string) (string, error) {
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("shard URL %q: %v", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("shard URL %q: need http(s)://host[:port]", raw)
	}
	return strings.TrimSuffix(u.String(), "/"), nil
}

// Shards returns the number of configured shards.
func (p *Puller) Shards() int { return len(p.shards) }

// ShardURL returns shard i's base URL.
func (p *Puller) ShardURL(i int) string { return p.shards[i].url }

// Route returns the shard index owning doc.
func (p *Puller) Route(doc []byte) int { return Route(doc, len(p.shards)) }

// Serving returns the current merged state, or nil before the first
// successful pull. The returned value is immutable.
func (p *Puller) Serving() *Serving { return p.serving.Load() }

// Status reports every shard's live provenance, in shard order.
func (p *Puller) Status() []ShardStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ShardStatus, len(p.shards))
	for i, sh := range p.shards {
		st := ShardStatus{
			URL:                 sh.url,
			Reachable:           sh.failures == 0 && !sh.lastPull.IsZero(),
			Trees:               sh.trees,
			Reset:               sh.reset,
			LastPullAgeMS:       -1,
			ConsecutiveFailures: sh.failures,
		}
		if !sh.lastPull.IsZero() {
			st.LastPullAgeMS = time.Since(sh.lastPull).Milliseconds()
		}
		st.Stale = !st.Reachable && sh.st != nil
		if sh.lastErr != nil {
			st.LastError = sh.lastErr.Error()
		}
		out[i] = st
	}
	return out
}

// Run pulls every shard each PullEvery period until ctx is canceled,
// rebuilding and publishing the merged synopsis whenever a pull
// brought new state. The first round starts immediately. On return the
// pull client's idle connections are closed, so draining shards are
// not left waiting on quiet keep-alive conns.
func (p *Puller) Run(ctx context.Context) {
	defer p.cfg.Client.CloseIdleConnections()
	p.round(ctx, false)
	t := time.NewTicker(p.cfg.PullEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.round(ctx, false)
		}
	}
}

// PullNow runs one pull round synchronously, ignoring per-shard
// backoff windows — the freshness fan-out behind /query?fresh=1. It
// returns the first shard error (the merged state still advances for
// the shards that answered). When every shard answers 304 Not Modified
// the published state is already fresh and stays as it is.
func (p *Puller) PullNow(ctx context.Context) error {
	return p.round(ctx, true)
}

// round pulls the due shards in parallel, folds the results into the
// shard states, and rebuilds the merged state when a pull brought new
// bytes. Each pull goroutine restores its own shard's synopsis, so a
// busy round restores in parallel and the rebuild only merges.
//
// The round is traced: a round triggered by a traced request
// (/query?fresh=1 — the request trace rides in on ctx) records its
// per-shard pull spans and merge/publish spans into that request's
// trace; a periodic round records into a background trace of its own,
// kept in the recorder's background ring so ticker traffic never
// evicts request history.
func (p *Puller) round(ctx context.Context, force bool) error {
	type target struct {
		i    int
		url  string
		etag string
	}
	now := time.Now()
	var due []target
	p.mu.Lock()
	for i, sh := range p.shards {
		if force || !now.Before(sh.nextTry) {
			due = append(due, target{i, sh.url, sh.etag})
		}
	}
	p.mu.Unlock()
	if len(due) == 0 {
		return nil
	}

	tr := trace.FromContext(ctx)
	owned := false // this round started (and must finish) its own trace
	if tr == nil {
		tr = p.cfg.Trace.StartBackground("pull")
		owned = true
	}

	results := make([]pullResult, len(due))
	var wg sync.WaitGroup
	for n, tg := range due {
		wg.Add(1)
		go func(n int, tg target) {
			defer wg.Done()
			results[n] = p.pull(ctx, tr, tg.i, tg.url, tg.etag)
		}(n, tg)
	}
	wg.Wait()

	var firstErr error
	now = time.Now()
	p.mu.Lock()
	for n, r := range results {
		i := due[n].i
		sh := p.shards[i]
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d (%s): %w", i, sh.url, r.err)
			}
			sh.failures++
			sh.lastErr = r.err
			sh.nextTry = now.Add(p.backoff(sh.failures))
			p.cfg.Logger.Warn("synopsis pull failed", "shard", i, "url", sh.url,
				"err", r.err, "consecutive_failures", sh.failures, "trace_id", tr.ID())
			continue
		}
		sh.failures = 0
		sh.lastErr = nil
		sh.nextTry = time.Time{}
		sh.lastPull = now
		if r.st == nil {
			continue // 304: the restored synopsis is still current
		}
		trees := r.st.TreesProcessed()
		if sh.st != nil && trees < sh.trees {
			sh.reset = true
			p.cfg.Metrics.ShardReset(i)
			p.cfg.Logger.Warn("shard tree count fell; its earlier documents are gone from merged counts",
				"shard", i, "url", sh.url, "old_trees", sh.trees, "new_trees", trees, "trace_id", tr.ID())
		}
		sh.st, sh.etag, sh.trees = r.st, r.etag, trees
		sh.gen++
	}
	// Snapshot the per-shard engines under mu; the merge runs outside it
	// so Status and later rounds are never blocked behind a rebuild.
	var gen int64
	engines := make([]*sketchtree.SketchTree, len(p.shards))
	for i, sh := range p.shards {
		engines[i] = sh.st
		gen += sh.gen
	}
	p.mu.Unlock()

	if gen != p.builtAt.Load() {
		if err := p.rebuild(engines, gen, tr); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if owned {
		status := http.StatusOK
		if firstErr != nil {
			status = http.StatusBadGateway
		}
		tr.Finish(status)
	}
	return firstErr
}

// pullResult is one shard pull's outcome: st is nil on a 304 (and on
// error), otherwise the synopsis restored from the body tagged etag.
type pullResult struct {
	st   *sketchtree.SketchTree
	etag string
	err  error
}

// pull fetches shard i's synopsis conditionally on etag (the tag of
// the bytes last restored from it, "" before the first) and restores a
// changed body. Bytes that fail to restore fail the pull: their tag is
// not kept, so the next round pulls the shard in full again.
func (p *Puller) pull(ctx context.Context, tr *trace.Trace, i int, url, etag string) pullResult {
	sp := tr.StartSpan("pull:" + strconv.Itoa(i))
	defer tr.EndSpan(sp)
	start := time.Now()
	data, newTag, err := p.fetch(ctx, url, etag, tr.ID())
	var st *sketchtree.SketchTree
	if err == nil && data != nil {
		rs := tr.StartChild(sp, "restore")
		st, err = sketchtree.Restore(data)
		tr.EndSpan(rs)
		if err != nil {
			err = fmt.Errorf("restoring synopsis: %w", err)
		}
	}
	p.cfg.Metrics.PullDone(i, time.Since(start), int64(len(data)), err)
	switch {
	case err != nil:
		return pullResult{err: err}
	case st == nil:
		p.cfg.Metrics.NotModified(i)
	default:
		p.cfg.Metrics.Restored(i)
	}
	return pullResult{st: st, etag: newTag}
}

// backoff returns the retry delay after n consecutive failures:
// RetryBackoff doubled per failure beyond the first, capped at
// MaxBackoff.
func (p *Puller) backoff(n int) time.Duration {
	d := p.cfg.RetryBackoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= p.cfg.MaxBackoff {
			return p.cfg.MaxBackoff
		}
	}
	return min(d, p.cfg.MaxBackoff)
}

// fetch pulls one shard's serialized synopsis, conditionally on etag
// when it is non-empty: a 304 answer returns nil data and no error.
// traceID, when non-empty, propagates on the request header so the
// shard's flight recorder joins this round's trace.
func (p *Puller) fetch(ctx context.Context, base, etag, traceID string) (data []byte, newTag string, err error) {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.PullTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/synopsis", nil)
	if err != nil {
		return nil, "", err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	if traceID != "" {
		req.Header.Set(trace.Header, traceID)
	}
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotModified:
		if etag == "" {
			return nil, "", fmt.Errorf("GET /synopsis: 304 to an unconditional request")
		}
		return nil, "", nil
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, "", fmt.Errorf("GET /synopsis: status %d", resp.StatusCode)
	}
	data, err = io.ReadAll(io.LimitReader(resp.Body, p.cfg.MaxSynopsisBytes+1))
	if err != nil {
		return nil, "", err
	}
	if int64(len(data)) > p.cfg.MaxSynopsisBytes {
		return nil, "", fmt.Errorf("synopsis exceeds %d bytes", p.cfg.MaxSynopsisBytes)
	}
	return data, resp.Header.Get("ETag"), nil
}

// rebuild merges the restored shard synopses, in shard-index order,
// into a copy of the first and publishes it. The restored engines are
// only read, so an unchanged shard's engine serves every later rebuild
// as is. Because the sketch cells are exact integer sums that commute,
// the merged synopsis — and therefore every answer served from it — is
// bit-identical to a single node that ingested the whole corpus.
// Shards that have never been pulled contribute nothing (their slice
// is absent until they come up).
func (p *Puller) rebuild(engines []*sketchtree.SketchTree, gen int64, tr *trace.Trace) error {
	sp := tr.StartSpan("merge")
	var merged *sketchtree.SketchTree
	for i, st := range engines {
		var err error
		switch {
		case st == nil:
			continue
		case merged == nil:
			merged, err = st.Snapshot()
		default:
			err = merged.Merge(st)
		}
		if err != nil {
			tr.EndSpan(sp)
			return fmt.Errorf("merging shard %d synopsis: %w", i, err)
		}
	}
	tr.EndSpan(sp)
	if merged == nil {
		return nil
	}
	sp = tr.StartSpan("publish")
	p.publish(merged)
	tr.EndSpan(sp)
	p.builtAt.Store(gen)
	p.cfg.Logger.Debug("published merged state", "trees", merged.TreesProcessed(),
		"rounds", p.rounds.Load(), "trace_id", tr.ID())
	return nil
}

// publish swaps in a new merged state. Kept free of restore/merge work
// so the provenance clock read stays out of the deterministic rebuild
// path.
func (p *Puller) publish(merged *sketchtree.SketchTree) {
	p.serving.Store(&Serving{
		Tree:   merged,
		Trees:  merged.TreesProcessed(),
		Built:  time.Now(),
		Rounds: p.rounds.Add(1),
	})
}

// ServeSynopsis writes a serialized synopsis as the shard half of the
// pull protocol: the body tagged with a strong ETag, the SHA-256 of
// exactly these bytes, or a bodiless 304 Not Modified when the
// request's If-None-Match names that tag.
func ServeSynopsis(w http.ResponseWriter, r *http.Request, data []byte) {
	sum := sha256.Sum256(data)
	w.Header().Set("ETag", `"`+hex.EncodeToString(sum[:])+`"`)
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(data))
}
