package sketchtree

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"sketchtree/internal/audit"
	"sketchtree/internal/core"
	"sketchtree/internal/obs"
	"sketchtree/internal/summary"
	"sketchtree/internal/tree"
)

// Tree is an ordered labeled tree — one element of the stream.
type Tree = tree.Tree

// Node is a single node of a Tree or of a query pattern.
type Node = tree.Node

// Config configures a SketchTree instance; see the field documentation
// on core.Config re-exported here. Zero fields are filled with
// defaults where meaningful; use DefaultConfig as the starting point.
type Config = core.Config

// Memory is the synopsis footprint breakdown.
type Memory = core.Memory

// TopKProbabilityNever is the Config.TopKProbability sentinel that
// disables per-pattern top-k processing entirely (the field's zero
// value selects the default probability 1.0 instead).
const TopKProbabilityNever = core.TopKProbabilityNever

// DefaultPlanCacheSize is the query-plan cache capacity selected by a
// zero Config.PlanCacheSize.
const DefaultPlanCacheSize = core.DefaultPlanCacheSize

// PlanCacheDisabled is the Config.PlanCacheSize sentinel that disables
// query-plan caching (the field's zero value selects the default
// capacity instead).
const PlanCacheDisabled = core.PlanCacheDisabled

// DefaultConfig mirrors the paper's common experimental setup: k = 4,
// s1 = 25, s2 = 7 (δ = 0.1), 229 virtual streams, top-50 tracking,
// four-wise ξ, degree-61 fingerprints.
func DefaultConfig() Config { return core.DefaultConfig() }

// Pattern builds a labeled tree node: Pattern("A", Pattern("B")) is
// the pattern A with child B. Used for both data trees and queries.
func Pattern(label string, children ...*Node) *Node {
	return tree.New(label, children...)
}

// NewTree wraps a root node as a stream element.
func NewTree(root *Node) *Tree { return tree.NewTree(root) }

// ParsePattern parses the S-expression form of a pattern, e.g.
// "(A (B) (C (D)))".
func ParsePattern(s string) (*Node, error) {
	t, err := tree.ParseSexp(s)
	if err != nil {
		return nil, err
	}
	return t.Root, nil
}

// ParseXML reads one XML document as a labeled tree: element names and
// non-whitespace character data become node labels, attributes are
// ignored (the paper's convention).
func ParseXML(r io.Reader) (*Tree, error) {
	return tree.ParseXML(r, tree.DefaultXMLOptions())
}

// ParseXMLString is ParseXML over a string.
func ParseXMLString(s string) (*Tree, error) {
	return tree.ParseXMLString(s, tree.DefaultXMLOptions())
}

// StreamXMLForest parses one large XML document, strips its root tag,
// and invokes fn for each root-child subtree — the paper's
// construction of a tree stream from a monolithic dataset file.
func StreamXMLForest(r io.Reader, fn func(*Tree) error) error {
	return tree.StreamForest(r, tree.DefaultXMLOptions(), fn)
}

// SketchTree is the streaming synopsis plus its query interface. It is
// not safe for concurrent use; wrap with a mutex if updates and
// queries race.
type SketchTree struct {
	e *core.Engine
}

// New creates a SketchTree with the given configuration.
func New(cfg Config) (*SketchTree, error) {
	e, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &SketchTree{e: e}, nil
}

// AddTree folds one tree of the stream into the synopsis.
func (s *SketchTree) AddTree(t *Tree) error { return s.e.AddTree(t) }

// AddXML parses one XML document and folds it into the synopsis.
func (s *SketchTree) AddXML(r io.Reader) error {
	m := s.e.Metrics()
	start := m.Now()
	t, err := ParseXML(r)
	m.StageSince(obs.StageParse, start)
	if err != nil {
		return err
	}
	return s.AddTree(t)
}

// AddXMLForest streams every tree of a rooted XML forest document into
// the synopsis.
func (s *SketchTree) AddXMLForest(r io.Reader) error {
	return streamForestTimed(s.e.Metrics(), r, s.AddTree)
}

// streamForestTimed runs StreamXMLForest, attributing the decode time
// (total wall time minus the sink's share) to the parse stage. With
// timers off it degenerates to the plain stream — no clock calls.
func streamForestTimed(m *obs.Metrics, r io.Reader, sink func(*Tree) error) error {
	if !m.TimersOn() {
		return StreamXMLForest(r, sink)
	}
	start := time.Now()
	var sinkNanos, n int64
	err := StreamXMLForest(r, func(t *Tree) error {
		n++
		s := time.Now()
		err := sink(t)
		sinkNanos += time.Since(s).Nanoseconds()
		return err
	})
	m.StageAdd(obs.StageParse, n, time.Since(start).Nanoseconds()-sinkNanos)
	return err
}

// CountOrdered estimates COUNT_ord(Q): the number of ordered
// occurrences of the pattern in the stream so far. The pattern must
// have between 1 and Config.MaxPatternEdges edges.
func (s *SketchTree) CountOrdered(q *Node) (float64, error) {
	return s.e.EstimateOrdered(q)
}

// CountUnordered estimates COUNT(Q): occurrences under any sibling
// order (the total over all distinct ordered arrangements of Q).
func (s *SketchTree) CountUnordered(q *Node) (float64, error) {
	return s.e.EstimateUnordered(q)
}

// CountOrderedSet estimates the total frequency of a set of distinct
// patterns with the Theorem-2 estimator, tighter than summing
// individual estimates.
func (s *SketchTree) CountOrderedSet(qs []*Node) (float64, error) {
	return s.e.EstimateOrderedSet(qs)
}

// Estimate is a pattern-count estimate with an error bar: the usual
// point estimate plus a standard error and 95% confidence interval
// derived from the sketch itself — the empirical spread of the s2
// independent row means, capped by the paper's a-priori variance bound
// at the estimated self-join size.
type Estimate = core.Estimate

// CountOrderedWithError is CountOrdered with an error bar. The Value
// field equals what CountOrdered returns for the same pattern and
// synopsis state.
func (s *SketchTree) CountOrderedWithError(q *Node) (Estimate, error) {
	return s.e.EstimateOrderedWithError(q)
}

// CountUnorderedWithError is CountUnordered with an error bar.
func (s *SketchTree) CountUnorderedWithError(q *Node) (Estimate, error) {
	return s.e.EstimateUnorderedWithError(q)
}

// CountOrderedSetWithError is CountOrderedSet with an error bar
// (Equation 7's set-estimator variance bound).
func (s *SketchTree) CountOrderedSetWithError(qs []*Node) (Estimate, error) {
	return s.e.EstimateOrderedSetWithError(qs)
}

// Expr is a query expression over pattern counts built from Count,
// Add, Sub and Mul.
type Expr = core.Expr

// Count is the COUNT_ord(Q) expression terminal.
func Count(q *Node) Expr { return core.CountOf{Pattern: q} }

// Add is the expression l + r.
func Add(l, r Expr) Expr { return core.ExprAdd{L: l, R: r} }

// Sub is the expression l − r.
func Sub(l, r Expr) Expr { return core.ExprSub{L: l, R: r} }

// Mul is the expression l × r. Product expressions of degree d require
// Config.Independence >= 2d (use 6 for pairwise products).
func Mul(l, r Expr) Expr { return core.ExprMul{L: l, R: r} }

// EstimateExpression estimates an arbitrary +, −, × expression over
// pattern counts with the paper's §4 unbiased estimator.
func (s *SketchTree) EstimateExpression(e Expr) (float64, error) {
	return s.e.EstimateExpr(e)
}

// Arrangements returns the distinct ordered arrangements of an
// unordered pattern (every permutation of every node's children,
// deduplicated). max <= 0 applies a safe default cap.
func Arrangements(q *Node, max int) ([]*Node, error) {
	return core.Arrangements(q, max)
}

// ExtQuery is a query pattern that may contain Wildcard labels and
// descendant ('//') edges; it requires Config.BuildSummary.
type ExtQuery = summary.QueryNode

// Wildcard is the label that matches any node label in an ExtQuery.
const Wildcard = summary.Wildcard

// Ext builds an extended-query node with a parent-child edge from its
// parent.
func Ext(label string, children ...*ExtQuery) *ExtQuery {
	return summary.Q(label, children...)
}

// ExtDesc builds an extended-query node whose incoming edge is '//'
// (ancestor-descendant).
func ExtDesc(label string, children ...*ExtQuery) *ExtQuery {
	return summary.QD(label, children...)
}

// CountExtended estimates the count of an extended query by resolving
// wildcards and descendant edges against the online structural summary
// (Config.BuildSummary must be set). The boolean reports truncation —
// when true the estimate may undercount because the summary was capped
// or an expansion exceeded Config.MaxPatternEdges.
func (s *SketchTree) CountExtended(q *ExtQuery) (float64, bool, error) {
	return s.e.EstimateExtended(q)
}

// ParsePath parses a compact XPath-like linear query, e.g. "A/B//C/*",
// into an extended query: '/' is parent-child, '//' is
// ancestor-descendant, '*' is the wildcard label.
func ParsePath(path string) (*ExtQuery, error) {
	if path == "" {
		return nil, fmt.Errorf("sketchtree: empty path")
	}
	path = strings.TrimPrefix(path, "/")
	var root, cur *ExtQuery
	desc := false
	for _, seg := range strings.Split(path, "/") {
		if seg == "" {
			if desc {
				return nil, fmt.Errorf("sketchtree: invalid '///' in path")
			}
			desc = true
			continue
		}
		n := &ExtQuery{Label: seg, Desc: desc}
		desc = false
		if cur == nil {
			root = n
		} else {
			cur.Children = append(cur.Children, n)
		}
		cur = n
	}
	if desc {
		return nil, fmt.Errorf("sketchtree: path ends with '//'")
	}
	if root == nil {
		return nil, fmt.Errorf("sketchtree: empty path")
	}
	return root, nil
}

// RemoveTree deletes one earlier occurrence of the tree from the
// synopsis (the AMS deletion property). Useful for sliding windows and
// revoked documents; see examples/monitoring.
func (s *SketchTree) RemoveTree(t *Tree) error { return s.e.RemoveTree(t) }

// Snapshot deep-copies the synopsis into an independent frozen
// SketchTree. The snapshot answers every estimator bit-identically to
// the receiver at snapshot time, never changes, and — because the
// query path is a pure read — may be queried from any number of
// goroutines concurrently without locking. The receiver must not be
// updated while Snapshot runs (Safe serializes this for you and keeps
// an automatically refreshed snapshot; see Safe.EnableSnapshots).
//
// Immutable state (random seeds, the fingerprint modulus, the
// query-plan cache) is shared; sketch counters, top-k trackers, the
// structural summary and the exact baseline are copied. The snapshot
// keeps its own Stats, starting from the receiver's tree and pattern
// totals, so merging other synopses into it (the cluster coordinator
// builds its merged view this way) leaves the receiver's Stats
// untouched. The exact-shadow auditor is not carried over.
//
//lint:allow safeparity Safe exposes snapshots as SnapshotTree/EnableSnapshots (atomic.Pointer refresh); a raw Snapshot wrapper would duplicate that API
func (s *SketchTree) Snapshot() (*SketchTree, error) {
	e, err := s.e.Clone()
	if err != nil {
		return nil, err
	}
	m := &obs.Metrics{}
	m.SeedCounts(e.TreesProcessed(), e.PatternsProcessed())
	e.SetMetrics(m)
	return &SketchTree{e: e}, nil
}

// FrequentPattern is one tracked heavy hitter: the pattern's internal
// one-dimensional value and its estimated frequency.
type FrequentPattern = core.FrequentPattern

// FrequentPatterns returns the currently tracked top-k patterns across
// all virtual streams, most frequent first (empty when Config.TopK is
// 0).
func (s *SketchTree) FrequentPatterns() []FrequentPattern {
	return s.e.FrequentPatterns()
}

// EstimateSelfJoinSize estimates SJ(S) = Σ f² of the pattern stream,
// the quantity that drives estimator variance (Theorem 1). With
// compensated set, deleted top-k instances are counted back in.
func (s *SketchTree) EstimateSelfJoinSize(compensated bool) float64 {
	return s.e.EstimateSelfJoinSize(compensated)
}

// MarshalBinary serializes the complete synopsis; Restore resumes it
// with bit-identical estimates. Lets a stream processor checkpoint and
// migrate its state.
func (s *SketchTree) MarshalBinary() ([]byte, error) { return s.e.MarshalBinary() }

// Save writes the serialized synopsis to w.
func (s *SketchTree) Save(w io.Writer) error {
	data, err := s.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Restore reconstructs a SketchTree from MarshalBinary output.
func Restore(data []byte) (*SketchTree, error) {
	e, err := core.Restore(data)
	if err != nil {
		return nil, err
	}
	return &SketchTree{e: e}, nil
}

// Load reads a serialized synopsis from r.
func Load(r io.Reader) (*SketchTree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Restore(data)
}

// Merge folds another SketchTree's synopsis into this one — parallel
// ingestion: shard the stream across SketchTrees created with the same
// Config (including Seed), then merge; the result is exactly the
// synopsis of the whole stream. Top-k tracking must be disabled on
// both operands.
func (s *SketchTree) Merge(o *SketchTree) error {
	if o == nil {
		return fmt.Errorf("sketchtree: nil operand")
	}
	return s.e.Merge(o.e)
}

// CountAlternatives estimates a pattern whose labels may contain
// '|'-separated alternatives (the boolean OR of the paper's Example 5,
// e.g. Pattern("VBD|VBP|VBZ")): the pattern expands into its distinct
// plain alternatives and their total frequency is estimated with the
// set estimator.
func (s *SketchTree) CountAlternatives(q *Node) (float64, error) {
	return s.e.EstimateAlternations(q)
}

// CountOrderedUpperBound bounds COUNT_ord(Q) for patterns larger than
// Config.MaxPatternEdges using the minimum count over Q's enumerable
// sub-patterns (an upper bound up to estimation error). Patterns
// within the limit fall back to CountOrdered.
func (s *SketchTree) CountOrderedUpperBound(q *Node) (float64, error) {
	return s.e.EstimateOrderedUpperBound(q)
}

// Stats is the observability snapshot: always-on counters (trees,
// patterns, removals, queries) plus, when metrics are enabled,
// per-stage timings and the query-latency histogram. See
// EnableMetrics.
type Stats = obs.Snapshot

// StageStats is one pipeline stage's totals within Stats.
type StageStats = obs.StageSnapshot

// QueryStats is the query-side totals within Stats.
type QueryStats = obs.QuerySnapshot

// Stage indexes Stats.Stages; the instrumented stages are StageParse,
// StageEnum, StageFingerprint, StageSketch, StageTopK, StageMerge,
// StagePlan and StagePublish.
type Stage = obs.Stage

// The instrumented pipeline stages, in processing order.
const (
	StageParse       = obs.StageParse
	StageEnum        = obs.StageEnum
	StageFingerprint = obs.StageFingerprint
	StageSketch      = obs.StageSketch
	StageTopK        = obs.StageTopK
	StageMerge       = obs.StageMerge
	StagePlan        = obs.StagePlan
	StagePublish     = obs.StagePublish
)

// EnableMetrics switches stage timers and query-latency measurement on
// or off. Counters (Stats.Trees, Stats.Patterns, ...) are always
// maintained; timing costs clock reads on the update path, so it is
// opt-in and off by default — with metrics disabled the hot path sees
// no time calls, locks or allocations from instrumentation.
func (s *SketchTree) EnableMetrics(on bool) { s.e.Metrics().EnableTimers(on) }

// Stats reads the observability snapshot. Counters are atomics, so
// Stats is safe to call while updates run (unlike the rest of the
// non-Safe API) and after sequential or merged parallel ingestion it
// agrees exactly with TreesProcessed/PatternsProcessed.
func (s *SketchTree) Stats() Stats { return s.e.Stats() }

// StatsJSONHandler serves snap() as an expvar-style JSON document —
// the exposition half of the observability layer (cmd/sketchtree
// mounts it at /stats).
func StatsJSONHandler(snap func() Stats) http.Handler { return obs.JSONHandler(snap) }

// StatsPromHandler serves snap() in the Prometheus text exposition
// format (cmd/sketchtree mounts it at /metrics).
func StatsPromHandler(snap func() Stats) http.Handler { return obs.PromHandler(snap) }

// HealthStats is the sketch-health section of Stats: per-virtual-stream
// occupancy, partition skew, and top-k churn, all readable race-free.
type HealthStats = obs.HealthSnapshot

// TopKStats is the top-k churn accounting within HealthStats.
type TopKStats = obs.TopKHealth

// AuditStats is the exact-shadow audit section of Stats: sample
// occupancy plus the last audit report's relative-error quantiles.
type AuditStats = obs.AuditSnapshot

// PlanCacheStats is the query-plan cache section of Stats: capacity,
// live entries, and hit/miss counters. Nil when the cache is disabled.
type PlanCacheStats = obs.PlanCacheSnapshot

// HealthReport is the full sketch-health diagnosis: HealthStats plus
// per-partition L2 energy, the compensated self-join size, and
// human-readable warnings.
type HealthReport = core.HealthReport

// HealthReport diagnoses the synopsis. Unlike Stats it reads the
// sketch counters, so on a shared instance use Safe.HealthReport.
func (s *SketchTree) HealthReport() HealthReport { return s.e.HealthReport() }

// AuditReport is the exact-shadow auditor's accuracy summary: every
// audited pattern's exact count versus the live sketch estimate, with
// relative-error quantiles over the sample.
type AuditReport = audit.Report

// AuditedPattern is one audited pattern's ground truth versus the
// sketch estimate within an AuditReport.
type AuditedPattern = audit.PatternError

// EnableAudit attaches the exact-shadow auditor: exact counts are kept
// for a bottom-k hash sample of up to k distinct pattern values, so the
// synopsis can continuously report its own observed accuracy
// (AuditReport, Stats.Audit). Must be called before any tree is added;
// costs one hash and map probe per pattern occurrence while enabled.
// The auditor is process-local and never serialized.
func (s *SketchTree) EnableAudit(k int) error { return s.e.EnableAudit(k) }

// AuditEnabled reports whether the exact-shadow auditor is attached.
func (s *SketchTree) AuditEnabled() bool { return s.e.AuditEnabled() }

// AuditReport scores every audited pattern through the live query path
// against its exact shadow count. The report's quantiles also refresh
// the Audit section of subsequent Stats snapshots.
func (s *SketchTree) AuditReport() (AuditReport, error) { return s.e.AuditReport() }

// TreesProcessed returns the number of stream trees folded in so far.
func (s *SketchTree) TreesProcessed() int64 { return s.e.TreesProcessed() }

// PatternsProcessed returns the number of pattern occurrences
// processed (the one-dimensional stream length).
func (s *SketchTree) PatternsProcessed() int64 { return s.e.PatternsProcessed() }

// MemoryBytes reports the synopsis footprint, broken down as the paper
// accounts it.
func (s *SketchTree) MemoryBytes() Memory { return s.e.MemoryBytes() }

// Config returns the effective (normalized) configuration.
func (s *SketchTree) Config() Config { return s.e.Config() }
