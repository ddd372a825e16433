package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// ClusterMetrics is the coordinator's per-shard observability: synopsis
// pull attempts/failures/latency and routed-ingest traffic. Like
// Metrics, every update is a lock-free atomic add and all methods are
// safe on a nil receiver, so uninstrumented call sites need no guards.
type ClusterMetrics struct {
	shards []clusterShardCell
}

type clusterShardCell struct {
	pulls        atomic.Int64
	pullFailures atomic.Int64
	pullNanos    atomic.Int64
	pullBytes    atomic.Int64
	notModified  atomic.Int64
	restores     atomic.Int64
	resets       atomic.Int64
	routed       atomic.Int64
	routeErrors  atomic.Int64
}

// NewClusterMetrics creates counters for n shards.
func NewClusterMetrics(n int) *ClusterMetrics {
	return &ClusterMetrics{shards: make([]clusterShardCell, n)}
}

// PullDone records one synopsis pull attempt against a shard: its
// latency, the synopsis size on success, and whether it failed.
func (m *ClusterMetrics) PullDone(shard int, d time.Duration, bytes int64, err error) {
	c := m.cell(shard)
	if c == nil {
		return
	}
	c.pulls.Add(1)
	c.pullNanos.Add(d.Nanoseconds())
	if err != nil {
		c.pullFailures.Add(1)
		return
	}
	c.pullBytes.Add(bytes)
}

// NotModified records a successful pull the shard answered with 304:
// its synopsis is unchanged, so nothing was restored.
func (m *ClusterMetrics) NotModified(shard int) {
	if c := m.cell(shard); c != nil {
		c.notModified.Add(1)
	}
}

// Restored records a successful pull whose new synopsis bytes were
// restored into an engine.
func (m *ClusterMetrics) Restored(shard int) {
	if c := m.cell(shard); c != nil {
		c.restores.Add(1)
	}
}

// ShardReset records a pull whose restored tree count fell below the
// shard's previous count.
func (m *ClusterMetrics) ShardReset(shard int) {
	if c := m.cell(shard); c != nil {
		c.resets.Add(1)
	}
}

// cell returns shard's counters, or nil on a nil receiver or an
// out-of-range shard.
func (m *ClusterMetrics) cell(shard int) *clusterShardCell {
	if m == nil || shard < 0 || shard >= len(m.shards) {
		return nil
	}
	return &m.shards[shard]
}

// RouteDone records one ingest request routed to a shard and whether
// forwarding it failed at the transport level.
func (m *ClusterMetrics) RouteDone(shard int, err error) {
	c := m.cell(shard)
	if c == nil {
		return
	}
	c.routed.Add(1)
	if err != nil {
		c.routeErrors.Add(1)
	}
}

// ClusterShardSnapshot is one shard's totals within a cluster snapshot.
type ClusterShardSnapshot struct {
	Pulls        int64 `json:"pulls"`
	PullFailures int64 `json:"pull_failures"`
	PullNanos    int64 `json:"pull_nanos"`
	PullBytes    int64 `json:"pull_bytes"`
	NotModified  int64 `json:"pull_not_modified"`
	Restores     int64 `json:"restores"`
	Resets       int64 `json:"resets"`
	Routed       int64 `json:"routed"`
	RouteErrors  int64 `json:"route_errors"`
}

// Snapshot reads the per-shard totals. Safe to call concurrently with
// updates; a nil receiver yields nil.
func (m *ClusterMetrics) Snapshot() []ClusterShardSnapshot {
	if m == nil {
		return nil
	}
	out := make([]ClusterShardSnapshot, len(m.shards))
	for i := range m.shards {
		c := &m.shards[i]
		out[i] = ClusterShardSnapshot{
			Pulls:        c.pulls.Load(),
			PullFailures: c.pullFailures.Load(),
			PullNanos:    c.pullNanos.Load(),
			PullBytes:    c.pullBytes.Load(),
			NotModified:  c.notModified.Load(),
			Restores:     c.restores.Load(),
			Resets:       c.resets.Load(),
			Routed:       c.routed.Load(),
			RouteErrors:  c.routeErrors.Load(),
		}
	}
	return out
}

// WriteClusterProm renders the per-shard cluster counter families in
// the Prometheus text exposition format, labeled by shard index.
// Appended to the coordinator's /metrics output after the engine
// families.
func WriteClusterProm(w io.Writer, shards []ClusterShardSnapshot) {
	family := func(name, help string, v func(s ClusterShardSnapshot) string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for i, s := range shards {
			fmt.Fprintf(w, "%s{shard=\"%d\"} %s\n", name, i, v(s))
		}
	}
	family("sketchtree_cluster_pulls_total", "Synopsis pull attempts per shard.",
		func(s ClusterShardSnapshot) string { return fmt.Sprintf("%d", s.Pulls) })
	family("sketchtree_cluster_pull_failures_total", "Synopsis pulls that failed per shard.",
		func(s ClusterShardSnapshot) string { return fmt.Sprintf("%d", s.PullFailures) })
	family("sketchtree_cluster_pull_seconds_total", "Time spent pulling synopses per shard.",
		func(s ClusterShardSnapshot) string { return formatSeconds(s.PullNanos) })
	family("sketchtree_cluster_pull_bytes_total", "Synopsis bytes pulled per shard.",
		func(s ClusterShardSnapshot) string { return fmt.Sprintf("%d", s.PullBytes) })
	family("sketchtree_cluster_pull_not_modified_total", "Synopsis pulls a shard answered 304 Not Modified (nothing restored).",
		func(s ClusterShardSnapshot) string { return fmt.Sprintf("%d", s.NotModified) })
	family("sketchtree_cluster_restores_total", "Pulled shard synopses restored (changed bytes).",
		func(s ClusterShardSnapshot) string { return fmt.Sprintf("%d", s.Restores) })
	family("sketchtree_cluster_shard_resets_total", "Pulls whose restored tree count fell below the shard's previous count.",
		func(s ClusterShardSnapshot) string { return fmt.Sprintf("%d", s.Resets) })
	family("sketchtree_cluster_routed_total", "Ingest requests routed per shard.",
		func(s ClusterShardSnapshot) string { return fmt.Sprintf("%d", s.Routed) })
	family("sketchtree_cluster_route_errors_total", "Routed ingests that failed at the transport level per shard.",
		func(s ClusterShardSnapshot) string { return fmt.Sprintf("%d", s.RouteErrors) })
}
