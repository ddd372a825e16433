package core

import (
	"fmt"
	"math/rand/v2"

	"sketchtree/internal/exact"
	"sketchtree/internal/summary"
	"sketchtree/internal/topk"
)

// Clone deep-copies the engine into an independent frozen synopsis —
// the building block of snapshot-isolated query serving. The clone
// answers every estimator bit-identically to the receiver at clone
// time and is never updated, so any number of goroutines may query it
// concurrently (the query path is a pure read; the plan cache locks
// itself).
//
// Shared, immutable state — the ξ family, the AMS seeds, the
// fingerprint modulus, and the query-plan cache (the pattern → value
// mapping is identical across clones) — is referenced, not copied.
// The observability Metrics are also shared, so queries served from a
// clone are counted in the source engine's Stats. Mutable synopsis
// state — sketch counters, top-k trackers, the structural summary, the
// exact baseline — is copied. The exact-shadow auditor is process-local
// bookkeeping of the live update path and is not carried over
// (AuditEnabled is false on the clone).
//
// The receiver must be quiescent or locked against updates while
// cloning; Safe takes care of that for snapshot serving.
func (e *Engine) Clone() (*Engine, error) {
	streams := e.streams.Clone()
	c := &Engine{
		cfg:     e.cfg,
		fam:     e.fam,
		seeds:   e.seeds,
		streams: streams,
		fp:      e.fp,
		//lint:allow determinism the clone's PCG is reseeded from Config.Seed and the tree count, same derivation Restore uses
		rng:      rand.New(rand.NewPCG(e.cfg.Seed, 0x5ce7c47ee^uint64(e.trees))),
		trees:    e.trees,
		patterns: e.patterns,
		met:      e.met,
		pass:     e.seeds.NewPass(),
		own:      &Prepared{},
		plans:    e.plans,
	}
	c.qest.New = func() any { return c.seeds.NewEstimator() }
	if e.trackers != nil {
		c.trackers = make([]*topk.Tracker, len(e.trackers))
		for i, t := range e.trackers {
			c.trackers[i] = t.Clone(streams.Sketch(i))
		}
	}
	if e.sum != nil {
		var err error
		c.sum, err = summary.FromSnapshot(e.sum.Snapshot())
		if err != nil {
			return nil, fmt.Errorf("core: clone: %w", err)
		}
	}
	if e.truth != nil {
		c.truth = exact.New()
		e.truth.ForEach(func(v uint64, cnt int64) { c.truth.Add(v, cnt) })
	}
	return c, nil
}
