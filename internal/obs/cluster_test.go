package obs

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestClusterMetricsAccounting(t *testing.T) {
	m := NewClusterMetrics(2)
	m.PullDone(0, 10*time.Millisecond, 128, nil)
	m.PullDone(0, 20*time.Millisecond, 256, nil)
	m.PullDone(1, 5*time.Millisecond, 0, errors.New("down"))
	m.RouteDone(1, nil)
	m.RouteDone(1, errors.New("unreachable"))

	snap := m.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot len = %d, want 2", len(snap))
	}
	s0, s1 := snap[0], snap[1]
	if s0.Pulls != 2 || s0.PullFailures != 0 || s0.PullBytes != 384 {
		t.Errorf("shard 0 = %+v, want 2 pulls, 0 failures, 384 bytes", s0)
	}
	if s0.PullNanos != int64(30*time.Millisecond) {
		t.Errorf("shard 0 nanos = %d, want %d", s0.PullNanos, int64(30*time.Millisecond))
	}
	if s1.Pulls != 1 || s1.PullFailures != 1 {
		t.Errorf("shard 1 = %+v, want 1 pull, 1 failure", s1)
	}
	if s1.Routed != 2 || s1.RouteErrors != 1 {
		t.Errorf("shard 1 routing = %+v, want 2 routed, 1 error", s1)
	}
}

func TestClusterMetricsNilSafe(t *testing.T) {
	var m *ClusterMetrics
	// All methods must be no-ops on nil (the Metrics field is optional).
	m.PullDone(0, time.Millisecond, 1, nil)
	m.NotModified(0)
	m.Restored(0)
	m.ShardReset(0)
	m.RouteDone(0, nil)
	if snap := m.Snapshot(); snap != nil {
		t.Errorf("nil Snapshot = %v, want nil", snap)
	}
}

func TestClusterMetricsShardBounds(t *testing.T) {
	m := NewClusterMetrics(1)
	// Out-of-range shards must be ignored, not panic.
	m.PullDone(-1, time.Millisecond, 1, nil)
	m.PullDone(5, time.Millisecond, 1, nil)
	m.RouteDone(-1, nil)
	m.RouteDone(5, nil)
	m.NotModified(-1)
	m.Restored(5)
	m.ShardReset(5)
	if s := m.Snapshot()[0]; s != (ClusterShardSnapshot{}) {
		t.Errorf("out-of-range updates leaked into shard 0: %+v", s)
	}
}

func TestWriteClusterProm(t *testing.T) {
	m := NewClusterMetrics(2)
	m.PullDone(0, 1500*time.Millisecond, 64, nil)
	m.PullDone(1, time.Millisecond, 0, errors.New("down"))
	m.RouteDone(0, nil)
	m.Restored(0)
	m.NotModified(0)
	m.NotModified(0)
	m.ShardReset(1)

	var b strings.Builder
	WriteClusterProm(&b, m.Snapshot())
	out := b.String()
	for _, want := range []string{
		`sketchtree_cluster_pulls_total{shard="0"} 1`,
		`sketchtree_cluster_pulls_total{shard="1"} 1`,
		`sketchtree_cluster_pull_failures_total{shard="1"} 1`,
		`sketchtree_cluster_pull_seconds_total{shard="0"} 1.5`,
		`sketchtree_cluster_pull_bytes_total{shard="0"} 64`,
		`sketchtree_cluster_routed_total{shard="0"} 1`,
		`sketchtree_cluster_route_errors_total{shard="0"} 0`,
		`sketchtree_cluster_restores_total{shard="0"} 1`,
		`sketchtree_cluster_restores_total{shard="1"} 0`,
		`sketchtree_cluster_pull_not_modified_total{shard="0"} 2`,
		`sketchtree_cluster_shard_resets_total{shard="0"} 0`,
		`sketchtree_cluster_shard_resets_total{shard="1"} 1`,
		"# TYPE sketchtree_cluster_pull_not_modified_total counter",
		"# TYPE sketchtree_cluster_restores_total counter",
		"# TYPE sketchtree_cluster_shard_resets_total counter",
		"# TYPE sketchtree_cluster_pulls_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}
