// Package core wires SketchTree together: EnumTree pattern generation,
// extended Prüfer sequencing, Rabin fingerprinting to one-dimensional
// values, virtual-streamed AMS sketches, and top-k frequent-pattern
// deletion. It implements the update path of Algorithm 1 and the query
// path of Algorithm 2, the set and expression estimators of §3.2/§4,
// unordered counts of §3.3, and the structural-summary query extension
// of §6.2.
package core

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"

	"sketchtree/internal/ams"
	"sketchtree/internal/audit"
	"sketchtree/internal/enum"
	"sketchtree/internal/exact"
	"sketchtree/internal/gf2"
	"sketchtree/internal/obs"
	"sketchtree/internal/prufer"
	"sketchtree/internal/rabin"
	"sketchtree/internal/summary"
	"sketchtree/internal/topk"
	"sketchtree/internal/tree"
	"sketchtree/internal/vstream"
	"sketchtree/internal/xi"
)

// Config configures a SketchTree engine.
type Config struct {
	// MaxPatternEdges is k, the largest pattern size enumerated from
	// each data tree (paper: 6 for TREEBANK, 4 for DBLP).
	MaxPatternEdges int

	// S1 is the number of sketch instances averaged per row (accuracy,
	// Theorem 1); S2 the number of rows medianed (confidence).
	S1, S2 int

	// VirtualStreams is the number p of virtual streams (§5.3); the
	// paper uses the prime 229. 1 disables partitioning.
	VirtualStreams int

	// TopK is the number of frequent patterns tracked and deleted per
	// virtual stream (§5.2); 0 disables tracking.
	TopK int

	// TopKProbability invokes top-k processing for each generated
	// pattern with this probability (§5.2 suggests sampling when
	// per-pattern processing is infeasible). Valid settings are the
	// zero value (which selects the default probability 1.0: every
	// pattern is processed), a probability in (0, 1], and the sentinel
	// TopKProbabilityNever (never invoke top-k processing while
	// keeping the trackers allocated).
	TopKProbability float64

	// Independence selects the ξ family: 4 (default) uses the BCH
	// four-wise construction; values above 4 use the k-wise polynomial
	// family, required for product expressions (§4).
	Independence int

	// FingerprintDegree is the degree of the random irreducible
	// polynomial for Rabin fingerprints (§6.1). The paper used 31; the
	// default 61 makes collisions negligible at modern stream sizes.
	FingerprintDegree int

	// Seed drives all randomness (fingerprint modulus, ξ seeds,
	// sampling); a fixed seed makes runs reproducible.
	Seed uint64

	// TrackExact additionally maintains the exact counter baseline, so
	// true counts, the true self-join size, and Table-1 style distinct
	// counts are available. It defeats the memory bound and exists for
	// experiments and tests.
	TrackExact bool

	// BuildSummary maintains the §6.2 structural summary online,
	// enabling wildcard and descendant queries. SummaryMaxNodes caps
	// its size (0 = unlimited).
	BuildSummary    bool
	SummaryMaxNodes int

	// PlanCacheSize bounds the query-plan LRU cache, which memoizes the
	// pattern → (arrangements, fingerprint values) mapping keyed by the
	// canonical pattern serialization. The zero value selects the
	// default capacity (DefaultPlanCacheSize); PlanCacheDisabled (or any
	// negative value) turns caching off. The mapping depends only on
	// (Seed, FingerprintDegree), so cached plans never go stale.
	PlanCacheSize int
}

// DefaultPlanCacheSize is the query-plan cache capacity selected by a
// zero Config.PlanCacheSize.
const DefaultPlanCacheSize = 512

// PlanCacheDisabled is the Config.PlanCacheSize sentinel that disables
// query-plan caching (the field's zero value selects the default
// capacity instead).
const PlanCacheDisabled = -1

// TopKProbabilityNever is the TopKProbability sentinel that disables
// per-pattern top-k processing entirely while keeping the TopK
// trackers allocated (FrequentPatterns stays empty). A plain 0 cannot
// express "never": the field's zero value selects the default
// probability 1.0.
const TopKProbabilityNever float64 = -1

// DefaultConfig mirrors the paper's common experimental setup.
func DefaultConfig() Config {
	return Config{
		MaxPatternEdges:   4,
		S1:                25,
		S2:                7, // s2 for δ = 0.1 (footnote 3)
		VirtualStreams:    229,
		TopK:              50,
		Independence:      4,
		FingerprintDegree: 61,
		Seed:              1,
	}
}

func (c *Config) normalize() error {
	if c.MaxPatternEdges < 1 {
		return fmt.Errorf("core: MaxPatternEdges %d < 1", c.MaxPatternEdges)
	}
	if c.S1 < 1 || c.S2 < 1 {
		return fmt.Errorf("core: S1=%d, S2=%d must be positive", c.S1, c.S2)
	}
	if c.VirtualStreams < 1 {
		return fmt.Errorf("core: VirtualStreams %d < 1", c.VirtualStreams)
	}
	if c.TopK < 0 {
		return fmt.Errorf("core: TopK %d < 0", c.TopK)
	}
	if c.Independence == 0 {
		c.Independence = 4
	}
	if c.Independence < 4 {
		return fmt.Errorf("core: Independence %d < 4", c.Independence)
	}
	if c.FingerprintDegree == 0 {
		c.FingerprintDegree = 61
	}
	if c.FingerprintDegree < 8 || c.FingerprintDegree > 62 {
		return fmt.Errorf("core: FingerprintDegree %d out of range [8, 62]", c.FingerprintDegree)
	}
	switch {
	case c.TopKProbability == 0:
		c.TopKProbability = 1 // zero value selects the default: process every pattern
	case c.TopKProbability == TopKProbabilityNever:
		// Explicit "never sample" sentinel, kept verbatim.
	case c.TopKProbability < 0 || c.TopKProbability > 1:
		return fmt.Errorf("core: TopKProbability %v invalid: want 0 (the default, 1.0), a probability in (0, 1], or TopKProbabilityNever (%v)",
			c.TopKProbability, TopKProbabilityNever)
	}
	switch {
	case c.PlanCacheSize == 0:
		c.PlanCacheSize = DefaultPlanCacheSize
	case c.PlanCacheSize < 0:
		c.PlanCacheSize = PlanCacheDisabled
	}
	return nil
}

// Engine is one SketchTree instance: a synopsis of the stream so far
// plus the query machinery.
type Engine struct {
	cfg      Config
	fam      *xi.Family
	seeds    *ams.Seeds
	streams  *vstream.Streams
	trackers []*topk.Tracker // per virtual stream; nil when TopK == 0
	fp       *rabin.Fingerprinter
	sum      *summary.Summary
	truth    *exact.Counter
	rng      *rand.Rand

	trees    int64
	patterns int64

	// met mirrors trees/patterns in race-free atomics and carries the
	// stage timers and query-latency histogram. Counters are always
	// maintained; timers only when enabled (obs.Metrics.EnableTimers).
	met *obs.Metrics

	pass *ams.Pass // fused-arrival scratch of top-k processing
	own  *Prepared // AddTree/RemoveTree's scratch (the update path is serialized)

	// qest pools query-side estimators: concurrent queries on one
	// frozen engine (snapshot serving) each borrow a scratch estimator
	// instead of allocating rows and parity bits per call.
	qest sync.Pool

	// plans memoizes the query-side pattern → value mapping; nil when
	// Config.PlanCacheSize is PlanCacheDisabled. It is internally
	// locked, so concurrent queries (snapshot serving) stay safe; clones
	// share it because the mapping is identical across clones.
	plans *planCache

	observer func(v uint64, p *enum.Pattern)

	// auditor is the opt-in exact-shadow accuracy auditor (EnableAudit);
	// nil in the default configuration, keeping the hot path to a single
	// pointer test. auditCache holds the error quantiles of the last
	// AuditReport so lock-free Stats() readers can expose them.
	auditor    *audit.Auditor
	auditCache atomic.Pointer[obs.AuditSnapshot]
}

// New builds an engine from the configuration.
func New(cfg Config) (*Engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5ce7c47ee))
	// The fingerprint modulus is drawn first so the pattern→value
	// mapping depends only on (Seed, FingerprintDegree), not on the
	// sketch dimensions — engines in a parameter sweep then share the
	// mapping.
	fp, err := rabin.NewRandom(cfg.FingerprintDegree, rng)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// ξ field: one degree above the fingerprint degree keeps values
	// injective in the field.
	fieldDeg := cfg.FingerprintDegree + 1
	if fieldDeg < 31 {
		fieldDeg = 31
	}
	field, err := gf2.NewField(gf2.DefaultModulus(fieldDeg))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var fam *xi.Family
	if cfg.Independence == 4 {
		fam = xi.NewBCHFamily(field)
	} else {
		fam, err = xi.NewPolyFamily(field, cfg.Independence)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	seeds, err := ams.NewSeeds(fam, cfg.S1, cfg.S2, rng)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	streams, err := vstream.New(seeds, cfg.VirtualStreams)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e := &Engine{
		cfg:     cfg,
		fam:     fam,
		seeds:   seeds,
		streams: streams,
		fp:      fp,
		rng:     rng,
		met:     &obs.Metrics{},
		pass:    seeds.NewPass(),
		own:     &Prepared{},
		plans:   newPlanCache(cfg.PlanCacheSize),
	}
	e.qest.New = func() any { return seeds.NewEstimator() }
	if cfg.TopK > 0 {
		e.trackers = make([]*topk.Tracker, cfg.VirtualStreams)
		for i := range e.trackers {
			t, err := topk.New(cfg.TopK, streams.Sketch(i))
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			e.trackers[i] = t
		}
	}
	if cfg.BuildSummary {
		e.sum = summary.New(cfg.SummaryMaxNodes)
	}
	if cfg.TrackExact {
		e.truth = exact.New()
	}
	return e, nil
}

// Config returns the effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// PatternValue maps a labeled tree pattern to its one-dimensional
// value: extended Prüfer sequence → framed byte encoding → Rabin
// fingerprint (the §6.1 mapping; the exact pairing function of package
// pairing is the overflow-free alternative used in tests). It does not
// touch engine state, so concurrent queries may call it freely.
func (e *Engine) PatternValue(q *tree.Node) uint64 {
	return e.fp.Fingerprint(prufer.OfNode(q).Encode(nil))
}

// AddTree processes one tree from the stream: every ordered pattern
// with 1..k edges is enumerated, mapped to its one-dimensional value,
// and folded into the synopsis (Algorithm 1), with per-pattern top-k
// processing (Algorithm 4) when enabled. It is PrepareTree into the
// engine's own scratch followed by ApplyPrepared, so a tree is either
// applied whole or, on error, not at all.
//
//lint:hotpath
func (e *Engine) AddTree(t *tree.Tree) error {
	if err := e.PrepareTree(t, e.own); err != nil {
		return err
	}
	return e.apply(e.own, 1)
}

// RemoveTree deletes one earlier occurrence of the tree from the
// synopsis, exploiting the AMS deletion property (§5.2: "deleting
// values from a stream is easy"): every pattern of the tree is
// subtracted once. Tracked top-k frequencies refer to instances
// already deleted from the sketches and remain valid, so they are left
// untouched. Removing a tree that was never added yields negative
// logical counts; the estimators remain unbiased for the resulting
// signed stream.
//
//lint:hotpath
func (e *Engine) RemoveTree(t *tree.Tree) error {
	if err := e.PrepareTree(t, e.own); err != nil {
		return err
	}
	return e.apply(e.own, -1)
}

// sampleTopK decides whether a pattern occurrence goes through top-k
// processing (§5.2 sampling). The RNG advances only for probabilities
// strictly between 0 and 1, so fully deterministic configurations
// (including TopKProbabilityNever) stay reproducible.
//
//lint:hotpath
func (e *Engine) sampleTopK() bool {
	p := e.cfg.TopKProbability
	if p >= 1 {
		return true
	}
	if p <= 0 { // TopKProbabilityNever
		return false
	}
	return e.rng.Float64() < p
}

// FrequentPattern is one tracked heavy hitter: the pattern's
// one-dimensional value and its estimated frequency at tracking time.
type FrequentPattern struct {
	Value uint64
	Freq  int64
}

// FrequentPatterns returns the currently tracked top-k patterns across
// all virtual streams, most frequent first. Frequencies are the
// sketch estimates recorded by Algorithm 4.
func (e *Engine) FrequentPatterns() []FrequentPattern {
	var out []FrequentPattern
	for _, t := range e.trackers {
		for _, vf := range t.Entries() {
			out = append(out, FrequentPattern{Value: vf.Value, Freq: vf.Freq})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Freq != out[j].Freq {
			return out[i].Freq > out[j].Freq
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// EstimateSelfJoinSize estimates SJ(S) = Σ f² of the pattern stream —
// the quantity that drives the estimator variance (Equation 2) and
// hence how much memory a target accuracy needs. With compensated set,
// the deleted top-k instances are added back per cell, estimating the
// full stream's self-join size; otherwise the residual (lightened)
// stream is measured, which is what governs current query variance.
// Virtual streams are disjoint, so per-stream F2 estimates sum.
func (e *Engine) EstimateSelfJoinSize(compensated bool) float64 {
	total := 0.0
	for i := 0; i < e.streams.P(); i++ {
		var adj []int64
		if compensated && e.trackers != nil {
			adj = e.trackers[i].AdjustmentAll()
		}
		total += e.streams.Sketch(i).EstimateF2(adj)
	}
	return total
}

// SetObserver installs a hook invoked once per generated pattern
// occurrence during AddTree, after the synopsis update, with the
// pattern's one-dimensional value. The experiment harness uses it to
// build ground-truth catalogs in the same stream pass.
func (e *Engine) SetObserver(fn func(v uint64, p *enum.Pattern)) { e.observer = fn }

// Metrics returns the engine's observability layer: always-on atomic
// counters plus opt-in stage timers and the query-latency histogram
// (obs.Metrics.EnableTimers). Reading it (Snapshot) is safe while the
// engine updates.
func (e *Engine) Metrics() *obs.Metrics { return e.met }

// SetMetrics replaces the engine's observability sink. Clone shares the
// source's Metrics by default; the sliding-window engine uses this hook
// to give each slice engine its own counters and to let the merged
// serving engine report through one persistent Metrics across rebuilds.
// The engine must be quiescent: swapping the sink while an update or
// query is in flight would split its accounting across two sinks. The
// observability layer is process-local state and is never serialized,
// so the swap cannot affect synopsis bytes or estimates.
func (e *Engine) SetMetrics(m *obs.Metrics) {
	if m == nil {
		m = &obs.Metrics{}
	}
	e.met = m
}

// Stats reads the engine's observability snapshot. Unlike
// TreesProcessed/PatternsProcessed it is safe to call concurrently
// with updates (the counters are atomics) and additionally carries
// per-stage timings, the query-latency histogram when timers are
// enabled, the sketch-health section, and — when the exact-shadow
// auditor is enabled — the audit section with the last report's error
// quantiles. Everything collected here comes from atomics.
func (e *Engine) Stats() obs.Snapshot {
	s := e.met.Snapshot()
	s.Health = e.healthSnapshot()
	if e.auditor != nil {
		s.Audit = e.auditSnapshot()
	}
	s.Plans = e.plans.snapshot()
	return s
}

// TreesProcessed returns the number of trees folded into the synopsis.
func (e *Engine) TreesProcessed() int64 { return e.trees }

// PatternsProcessed returns the number of pattern occurrences
// processed (the length of the one-dimensional stream).
func (e *Engine) PatternsProcessed() int64 { return e.patterns }

// Exact returns the exact baseline counter, or nil when TrackExact is
// off.
func (e *Engine) Exact() *exact.Counter { return e.truth }

// Summary returns the structural summary, or nil when BuildSummary is
// off.
func (e *Engine) Summary() *summary.Summary { return e.sum }

// Memory is the synopsis footprint, broken down as the paper accounts
// it: sketch counters, ξ seeds, and top-k structures (§7.5).
type Memory struct {
	SketchCounters int
	Seeds          int
	TopK           int
	Summary        int
}

// Total returns the whole synopsis size in bytes, excluding the
// optional structural summary, which the paper accounts separately.
func (m Memory) Total() int { return m.SketchCounters + m.Seeds + m.TopK }

// MemoryBytes reports the synopsis footprint.
func (e *Engine) MemoryBytes() Memory {
	m := Memory{
		SketchCounters: e.streams.MemoryBytes(),
		Seeds:          e.seeds.MemoryBytes(),
	}
	for _, t := range e.trackers {
		m.TopK += t.MemoryBytes()
	}
	if e.sum != nil {
		m.Summary = e.sum.MemoryBytes()
	}
	return m
}

// trackerFor returns the top-k tracker of the virtual stream v routes
// to, or nil when tracking is disabled.
//
//lint:hotpath
func (e *Engine) trackerFor(v uint64) *topk.Tracker {
	if e.trackers == nil {
		return nil
	}
	return e.trackers[e.streams.Route(v)]
}

// adjustmentFor collects the top-k compensation for query values vs
// against the combined sketch of their virtual streams: each tracker
// contributes the deleted instances of the query values it tracks.
func (e *Engine) adjustmentFor(vs []uint64) []int64 {
	if e.trackers == nil {
		return nil
	}
	var adj []int64
	seen := make(map[int]bool)
	for _, v := range vs {
		r := e.streams.Route(v)
		if seen[r] {
			continue
		}
		seen[r] = true
		part := e.trackers[r].Adjustment(vs)
		if part == nil {
			continue
		}
		if adj == nil {
			adj = part
			continue
		}
		for c := range adj {
			adj[c] += part[c]
		}
	}
	return adj
}
