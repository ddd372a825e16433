package cluster

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"sketchtree"
	"sketchtree/internal/obs"
)

// pullQueries are the patterns the pull-protocol tests compare with ==.
var pullQueries = []string{"(a (b))", "(a (c))", "(a (b) (c))", "(a (d))"}

// requireEqualSynopsis fails unless got is bit-identical to a single
// engine fed docs: the same serialized bytes and == estimates.
func requireEqualSynopsis(t *testing.T, got *sketchtree.SketchTree, docs ...string) {
	t.Helper()
	ref, err := sketchtree.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := ref.AddTree(parseDoc(t, d)); err != nil {
			t.Fatal(err)
		}
	}
	a, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("merged synopsis bytes differ from the single-node engine")
	}
	for _, qs := range pullQueries {
		q, err := sketchtree.ParsePattern(qs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.CountOrdered(q)
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.CountOrdered(q)
		if err != nil {
			t.Fatal(err)
		}
		if have != want {
			t.Fatalf("%s: merged estimate %v, single node %v", qs, have, want)
		}
	}
}

// newPuller starts a puller over the shards with fresh metrics.
func newPuller(t *testing.T, urls ...string) (*Puller, *obs.ClusterMetrics) {
	t.Helper()
	met := obs.NewClusterMetrics(len(urls))
	p, err := New(Config{Shards: urls, PullEvery: time.Hour, RetryBackoff: time.Nanosecond, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	return p, met
}

func estimate(t *testing.T, st *sketchtree.SketchTree, pattern string) float64 {
	t.Helper()
	q, err := sketchtree.ParsePattern(pattern)
	if err != nil {
		t.Fatal(err)
	}
	v, err := st.CountOrdered(q)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// A round with no ingest since the last one is answered 304 by every
// shard: nothing is restored, no state is published, and the answers
// stay bit-identical to a single node.
func TestQuietRoundIsNotModified(t *testing.T) {
	docs := []string{"<a><b/></a>", "<a><c/></a>", "<a><b/><c/></a>", "<a><d/></a>"}
	_, ts1 := newShard(t, docs[0], docs[1])
	_, ts2 := newShard(t, docs[2])
	_, ts3 := newShard(t, docs[3])
	p, met := newPuller(t, ts1.URL, ts2.URL, ts3.URL)
	ctx := context.Background()
	if err := p.PullNow(ctx); err != nil {
		t.Fatal(err)
	}
	sv := p.Serving()
	requireEqualSynopsis(t, sv.Tree, docs...)

	if err := p.PullNow(ctx); err != nil {
		t.Fatal(err)
	}
	for i, s := range met.Snapshot() {
		if s.NotModified != 1 || s.Restores != 1 || s.Pulls != 2 {
			t.Errorf("shard %d: %+v, want 2 pulls, 1 restore, 1 not modified", i, s)
		}
	}
	if got := p.Serving(); got != sv || got.Rounds != 1 {
		t.Fatalf("quiet round published rounds=%d, want the round-1 state", got.Rounds)
	}
	requireEqualSynopsis(t, p.Serving().Tree, docs...)
	for i, st := range p.Status() {
		if !st.Reachable || st.Stale || st.Reset {
			t.Errorf("shard %d status %+v after a quiet round", i, st)
		}
	}
}

// A shard that removes one document and adds another keeps its tree
// count but changes its synopsis: it must be pulled in full and the
// merged answer must move. This guards against an ETag keyed on the
// tree count (or any other summary coarser than the bytes).
func TestSameCountChangeIsRepulled(t *testing.T) {
	h1, ts1 := newShard(t, "<a><b/></a>", "<a><c/></a>")
	_, ts2 := newShard(t, "<a><b/><c/></a>")
	p, met := newPuller(t, ts1.URL, ts2.URL)
	ctx := context.Background()
	if err := p.PullNow(ctx); err != nil {
		t.Fatal(err)
	}
	before := estimate(t, p.Serving().Tree, "(a (d))")

	safe := h1.safe.Load()
	if err := safe.RemoveTree(parseDoc(t, "<a><c/></a>")); err != nil {
		t.Fatal(err)
	}
	if err := safe.AddTree(parseDoc(t, "<a><d/></a>")); err != nil {
		t.Fatal(err)
	}
	if err := p.PullNow(ctx); err != nil {
		t.Fatal(err)
	}
	snap := met.Snapshot()
	if snap[0].Restores != 2 || snap[0].NotModified != 0 {
		t.Fatalf("changed shard: %+v, want 2 restores and no 304", snap[0])
	}
	if snap[1].Restores != 1 || snap[1].NotModified != 1 {
		t.Fatalf("unchanged shard: %+v, want 1 restore and 1 304", snap[1])
	}
	sv := p.Serving()
	if sv.Rounds != 2 || sv.Trees != 3 {
		t.Fatalf("serving rounds=%d trees=%d, want 2/3", sv.Rounds, sv.Trees)
	}
	if after := estimate(t, sv.Tree, "(a (d))"); after == before {
		t.Fatalf("merged (a (d)) estimate stayed %v after the shard's content changed", after)
	}
	requireEqualSynopsis(t, sv.Tree, "<a><b/></a>", "<a><d/></a>", "<a><b/><c/></a>")
	if st := p.Status()[0]; st.Trees != 2 || st.Reset {
		t.Fatalf("shard 0 status %+v, want 2 trees and no reset", st)
	}
}

// Bytes that do not restore fail the round, their ETag is not kept,
// and the next round pulls the shard in full again; the last good
// synopsis keeps serving meanwhile.
func TestUndecodableSynopsisIsNotTagged(t *testing.T) {
	h, ts := newShard(t, "<a><b/></a>")
	_, ts2 := newShard(t, "<a><c/></a>")
	p, met := newPuller(t, ts.URL, ts2.URL)
	ctx := context.Background()
	if err := p.PullNow(ctx); err != nil {
		t.Fatal(err)
	}
	good := p.shards[0].etag
	if good == "" {
		t.Fatal("no ETag stored after a good pull")
	}

	garbage := []byte("not a synopsis")
	h.body.Store(&garbage)
	err := p.PullNow(ctx)
	if err == nil || !strings.Contains(err.Error(), "restoring synopsis") {
		t.Fatalf("PullNow over undecodable bytes: err = %v, want a restore error", err)
	}
	if got := p.shards[0].etag; got != good {
		t.Fatalf("stored ETag %q after a failed restore, want the last good %q", got, good)
	}
	if st := p.Status()[0]; st.Reachable || !st.Stale || st.ConsecutiveFailures != 1 {
		t.Fatalf("shard 0 status %+v, want unreachable, stale, 1 failure", st)
	}
	requireEqualSynopsis(t, p.Serving().Tree, "<a><b/></a>", "<a><c/></a>")

	// Still serving garbage: the round asks with the last good tag, so the
	// garbage comes back in full and fails to restore again (had its tag
	// been kept, the shard would have answered 304 and the round passed).
	if err := p.PullNow(ctx); err == nil || !strings.Contains(err.Error(), "restoring synopsis") {
		t.Fatalf("second PullNow over undecodable bytes: err = %v, want a restore error", err)
	}
	if got := h.lastIfNoneMatch(); got != good {
		t.Fatalf("If-None-Match %q, want the last good tag %q", got, good)
	}
	if s := met.Snapshot()[0]; s.NotModified != 0 {
		t.Fatalf("shard 0 answered %d 304s to a shard serving new bytes", s.NotModified)
	}

	// The shard recovers with new content: a full pull restores it.
	h.body.Store(nil)
	if err := h.safe.Load().AddTree(parseDoc(t, "<a><d/></a>")); err != nil {
		t.Fatal(err)
	}
	if err := p.PullNow(ctx); err != nil {
		t.Fatalf("PullNow after recovery: %v", err)
	}
	if s := met.Snapshot()[0]; s.Restores != 2 || s.PullFailures != 2 {
		t.Fatalf("shard 0 metrics %+v, want 2 restores and 2 failures", s)
	}
	requireEqualSynopsis(t, p.Serving().Tree, "<a><b/></a>", "<a><d/></a>", "<a><c/></a>")
}

// logSink captures slog records for assertions.
type logSink struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (s *logSink) Enabled(context.Context, slog.Level) bool { return true }
func (s *logSink) Handle(_ context.Context, r slog.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, r.Clone())
	return nil
}
func (s *logSink) WithAttrs([]slog.Attr) slog.Handler { return s }
func (s *logSink) WithGroup(string) slog.Handler      { return s }

// warnings returns the captured Warn records' messages with their
// attributes rendered as key=value.
func (s *logSink) warnings() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, r := range s.recs {
		if r.Level != slog.LevelWarn {
			continue
		}
		var b strings.Builder
		b.WriteString(r.Message)
		r.Attrs(func(a slog.Attr) bool {
			fmt.Fprintf(&b, " %s=%v", a.Key, a.Value)
			return true
		})
		out = append(out, b.String())
	}
	return out
}

// A shard that comes back empty (a restart without a checkpoint) is no
// longer silent: its status is flagged reset, the reset counter ticks,
// and one warning names the old and new tree counts.
func TestShardRestartedEmptyIsFlaggedReset(t *testing.T) {
	h, ts := newShard(t, "<a><b/></a>", "<a><c/></a>", "<a><b/><c/></a>")
	_, ts2 := newShard(t, "<a><d/></a>")
	sink := &logSink{}
	met := obs.NewClusterMetrics(2)
	p, err := New(Config{
		Shards: []string{ts.URL, ts2.URL}, PullEvery: time.Hour,
		Metrics: met, Logger: slog.New(sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := p.PullNow(ctx); err != nil {
		t.Fatal(err)
	}
	if st := p.Status()[0]; st.Trees != 3 || st.Reset {
		t.Fatalf("before restart: %+v, want 3 trees, no reset", st)
	}

	h.safe.Store(newSafe(t)) // the shard restarts empty
	if err := p.PullNow(ctx); err != nil {
		t.Fatal(err)
	}
	st := p.Status()[0]
	if !st.Reset || st.Trees != 0 || !st.Reachable {
		t.Fatalf("after restart: %+v, want reset, 0 trees, reachable", st)
	}
	if p.Status()[1].Reset {
		t.Fatal("untouched shard flagged reset")
	}
	if got := met.Snapshot()[0].Resets; got != 1 {
		t.Fatalf("resets counter = %d, want 1", got)
	}
	warns := sink.warnings()
	if len(warns) != 1 || !strings.Contains(warns[0], "old_trees=3") || !strings.Contains(warns[0], "new_trees=0") {
		t.Fatalf("warnings %q, want one naming old_trees=3 and new_trees=0", warns)
	}
	// The merged view now reflects what the shards hold.
	if sv := p.Serving(); sv.Trees != 1 {
		t.Fatalf("serving trees = %d, want 1", sv.Trees)
	}

	// The flag is sticky; a quiet round neither clears it nor re-warns.
	if err := p.PullNow(ctx); err != nil {
		t.Fatal(err)
	}
	if !p.Status()[0].Reset || len(sink.warnings()) != 1 || met.Snapshot()[0].Resets != 1 {
		t.Fatal("a quiet round cleared the reset flag or reported it again")
	}
}

// Per-shard trees on /cluster describe exactly the bytes merged: under
// concurrent ingest into every shard, after every round the per-shard
// counts sum to the published tree count.
func TestShardTreesMatchMergedUnderIngest(t *testing.T) {
	const nShards = 3
	urls := make([]string, nShards)
	handlers := make([]*shardHandler, nShards)
	for i := range urls {
		h, ts := newShard(t)
		handlers[i], urls[i] = h, ts.URL
	}
	p, _ := newPuller(t, urls...)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i, h := range handlers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			safe := h.safe.Load()
			for n := 0; ctx.Err() == nil; n++ {
				doc := fmt.Sprintf("<a><s%d/><n%d/></a>", i, n%5)
				tr, err := sketchtree.ParseXML(strings.NewReader(doc))
				if err != nil {
					t.Error(err)
					return
				}
				if err := safe.AddTree(tr); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() { cancel(); wg.Wait() }()

	for round := 0; round < 20; round++ {
		if err := p.PullNow(context.Background()); err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, st := range p.Status() {
			sum += st.Trees
		}
		sv := p.Serving()
		if sv == nil || sum != sv.Trees {
			t.Fatalf("round %d: per-shard trees sum to %d, serving has %v", round, sum, sv)
		}
		if got := sv.Tree.Stats().Trees; got != sv.Trees {
			t.Fatalf("round %d: merged Stats count %d trees, serving %d", round, got, sv.Trees)
		}
	}
}

// Rebuilds copy the first shard's restored engine and merge the others
// into the copy. The copy must keep its own Stats: were they shared
// with the kept engine, every rebuild in which only other shards moved
// would add their counts on top of the last ones.
func TestMergedStatsDoNotDrift(t *testing.T) {
	_, ts1 := newShard(t, "<a><b/></a>")
	h2, ts2 := newShard(t, "<a><c/></a>")
	p, _ := newPuller(t, ts1.URL, ts2.URL)
	ctx := context.Background()
	for round := 0; round < 4; round++ {
		if err := p.PullNow(ctx); err != nil {
			t.Fatal(err)
		}
		sv := p.Serving()
		if got := sv.Tree.Stats().Trees; got != sv.Trees || sv.Trees != int64(2+round) {
			t.Fatalf("round %d: merged Stats count %d trees, serving %d, want %d",
				round, got, sv.Trees, 2+round)
		}
		if err := h2.safe.Load().AddTree(parseDoc(t, "<a><d/></a>")); err != nil {
			t.Fatal(err)
		}
	}
}
