package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand/v2"

	"sketchtree/internal/ams"
	"sketchtree/internal/exact"
	"sketchtree/internal/gf2"
	"sketchtree/internal/obs"
	"sketchtree/internal/rabin"
	"sketchtree/internal/summary"
	"sketchtree/internal/topk"
	"sketchtree/internal/vstream"
	"sketchtree/internal/xi"
)

// snapshot is the serializable image of an engine. All randomized
// state — the fingerprint modulus and every ξ seed — is captured
// verbatim, so a restored engine continues the same synopsis: updates
// and estimates are bit-identical to an engine that never stopped.
// (The only divergence is the TopKProbability sampling RNG, which is
// re-seeded; it affects only which arrivals trigger top-k processing.)
type snapshot struct {
	Version            int
	Config             Config
	FingerprintModulus uint64
	SeedWords          [][]uint64
	StreamCounters     [][]int64
	TopKEntries        [][]topk.ValueFreq // nil when tracking is off
	Summary            *summary.Snapshot  // nil when summary is off
	Trees, Patterns    int64
	ExactValues        []uint64 // nil when TrackExact is off
	ExactCounts        []int64
}

const snapshotVersion = 1

// MarshalBinary serializes the complete synopsis state.
func (e *Engine) MarshalBinary() ([]byte, error) {
	sn := snapshot{
		Version:            snapshotVersion,
		Config:             e.cfg,
		FingerprintModulus: e.fp.Modulus(),
		SeedWords:          e.seeds.Words(),
		Trees:              e.trees,
		Patterns:           e.patterns,
	}
	sn.StreamCounters = make([][]int64, e.streams.P())
	for i := range sn.StreamCounters {
		sn.StreamCounters[i] = e.streams.Sketch(i).Counters()
	}
	if e.trackers != nil {
		sn.TopKEntries = make([][]topk.ValueFreq, len(e.trackers))
		for i, t := range e.trackers {
			sn.TopKEntries[i] = t.Entries()
		}
	}
	if e.sum != nil {
		s := e.sum.Snapshot()
		sn.Summary = &s
	}
	if e.truth != nil {
		e.truth.ForEach(func(v uint64, c int64) {
			sn.ExactValues = append(sn.ExactValues, v)
			sn.ExactCounts = append(sn.ExactCounts, c)
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sn); err != nil {
		return nil, fmt.Errorf("core: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore reconstructs an engine from MarshalBinary output.
func Restore(data []byte) (*Engine, error) {
	var sn snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&sn); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if sn.Version != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, want %d", sn.Version, snapshotVersion)
	}
	cfg := sn.Config
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	fp, err := rabin.New(sn.FingerprintModulus)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if fp.Degree() != cfg.FingerprintDegree {
		return nil, fmt.Errorf("core: modulus degree %d does not match config %d",
			fp.Degree(), cfg.FingerprintDegree)
	}
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
	seeds, err := ams.SeedsFromWords(fam, cfg.S1, cfg.S2, sn.SeedWords)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(sn.StreamCounters) != cfg.VirtualStreams {
		return nil, fmt.Errorf("core: %d stream counter arrays for %d virtual streams",
			len(sn.StreamCounters), cfg.VirtualStreams)
	}
	streams, err := vstream.FromCounters(seeds, sn.StreamCounters)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e := &Engine{
		cfg:     cfg,
		fam:     fam,
		seeds:   seeds,
		streams: streams,
		fp:      fp,
		//lint:allow determinism the PCG is reseeded from Config.Seed and the restored tree count, so Restore is reproducible by construction
		rng:      rand.New(rand.NewPCG(cfg.Seed, 0x5ce7c47ee^uint64(sn.Trees))),
		pass:     seeds.NewPass(),
		own:      &Prepared{},
		plans:    newPlanCache(cfg.PlanCacheSize),
		trees:    sn.Trees,
		patterns: sn.Patterns,
		met:      &obs.Metrics{},
	}
	e.qest.New = func() any { return seeds.NewEstimator() }
	// Stage timings and the latency histogram are process-local and
	// start fresh, but the counters realign with the persisted totals
	// so Stats matches TreesProcessed/PatternsProcessed after restore.
	e.met.SeedCounts(sn.Trees, sn.Patterns)
	if cfg.TopK > 0 {
		if len(sn.TopKEntries) != cfg.VirtualStreams {
			return nil, fmt.Errorf("core: %d top-k records for %d virtual streams",
				len(sn.TopKEntries), cfg.VirtualStreams)
		}
		e.trackers = make([]*topk.Tracker, cfg.VirtualStreams)
		for i, entries := range sn.TopKEntries {
			t, err := topk.Restore(cfg.TopK, streams.Sketch(i), entries)
			if err != nil {
				return nil, fmt.Errorf("core: stream %d: %w", i, err)
			}
			e.trackers[i] = t
		}
	} else if sn.TopKEntries != nil {
		return nil, fmt.Errorf("core: snapshot has top-k state but config disables tracking")
	}
	if cfg.BuildSummary {
		if sn.Summary == nil {
			return nil, fmt.Errorf("core: snapshot lacks the structural summary")
		}
		e.sum, err = summary.FromSnapshot(*sn.Summary)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if cfg.TrackExact {
		if len(sn.ExactValues) != len(sn.ExactCounts) {
			return nil, fmt.Errorf("core: exact snapshot arrays disagree")
		}
		e.truth = exact.New()
		for i, v := range sn.ExactValues {
			e.truth.Add(v, sn.ExactCounts[i])
		}
	}
	return e, nil
}
