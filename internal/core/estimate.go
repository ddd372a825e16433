package core

import (
	"math"

	"sketchtree/internal/ams"
	"sketchtree/internal/tree"
)

// Estimate is a pattern-count estimate with an error bar. Value is the
// usual median-of-means estimate — identical to what the plain
// estimators return. StdErr combines two views of the estimator's
// uncertainty: the empirical spread of the s2 independent row means
// behind the median, and the a-priori variance bound of the paper
// (Equation 2 for single counts, Equation 7 for sets) evaluated at the
// estimated self-join size. The empirical spread adapts to the actual
// stream (often much tighter than the worst-case bound); the bound
// caps it when the handful of rows happens to under-disperse. Using
// one row's standard error for the median of s2 rows is conservative:
// the median concentrates at least as well as a single row.
type Estimate struct {
	Value  float64
	StdErr float64
	// CI95 is the normal-approximation 95% interval
	// Value ± 1.96·StdErr (low, high).
	CI95 [2]float64
	// S1, S2 are the sketch dimensions the estimate was read with —
	// s1 instances averaged per row, s2 rows medianed.
	S1, S2 int
}

// newEstimate derives the error bar for an estimate over t distinct
// patterns drawn from a (combined) sketch with estimated self-join
// size sj.
func (e *Engine) newEstimate(re ams.RowEstimate, t int, sj float64) Estimate {
	if sj < 0 {
		sj = 0
	}
	emp := re.StdErr()
	bound := math.Sqrt(ams.VarBoundSet(t, sj) / float64(e.cfg.S1))
	se := emp
	if emp == 0 || (bound > 0 && bound < emp) {
		se = bound
	}
	return Estimate{
		Value:  re.Value,
		StdErr: se,
		CI95:   [2]float64{re.Value - 1.96*se, re.Value + 1.96*se},
		S1:     e.cfg.S1,
		S2:     e.cfg.S2,
	}
}

// EstimateOrderedWithError is EstimateOrdered with an error bar: the
// same point estimate, plus a standard error and 95% confidence
// interval derived from the sketch itself (no ground truth needed).
func (e *Engine) EstimateOrderedWithError(q *tree.Node) (Estimate, error) {
	start := e.met.QueryStart()
	est, err := e.estimateOrderedWithError(q)
	e.met.QueryDone(start, err)
	return est, err
}

func (e *Engine) estimateOrderedWithError(q *tree.Node) (Estimate, error) {
	if err := e.validatePattern(q); err != nil {
		return Estimate{}, err
	}
	v := e.orderedValue(q)
	sk := e.streams.SketchFor(v)
	adj := e.adjustmentForValue(v)
	re := sk.EstimateCountDetailed(v, adj)
	return e.newEstimate(re, 1, sk.EstimateF2(adj)), nil
}

// EstimateOrderedSetWithError is EstimateOrderedSet with an error bar
// (Equation 7's set-estimator variance bound).
func (e *Engine) EstimateOrderedSetWithError(qs []*tree.Node) (Estimate, error) {
	start := e.met.QueryStart()
	est, err := e.estimateOrderedSetWithError(qs)
	e.met.QueryDone(start, err)
	return est, err
}

func (e *Engine) estimateOrderedSetWithError(qs []*tree.Node) (Estimate, error) {
	vs, err := e.setValues(qs)
	if err != nil {
		return Estimate{}, err
	}
	sk := e.streams.Combined(vs)
	adj := e.adjustmentFor(vs)
	re := sk.EstimateSetCountDetailed(vs, adj)
	return e.newEstimate(re, len(vs), sk.EstimateF2(adj)), nil
}

// EstimateUnorderedWithError is EstimateUnordered with an error bar:
// the unordered count is the set estimate over all distinct ordered
// arrangements (§3.3), so the set bound applies.
func (e *Engine) EstimateUnorderedWithError(q *tree.Node) (Estimate, error) {
	start := e.met.QueryStart()
	est, err := e.estimateUnorderedWithError(q)
	e.met.QueryDone(start, err)
	return est, err
}

func (e *Engine) estimateUnorderedWithError(q *tree.Node) (Estimate, error) {
	if err := e.validatePattern(q); err != nil {
		return Estimate{}, err
	}
	vs, err := e.unorderedValues(q)
	if err != nil {
		return Estimate{}, err
	}
	sk := e.streams.Combined(vs)
	adj := e.adjustmentFor(vs)
	re := sk.EstimateSetCountDetailed(vs, adj)
	return e.newEstimate(re, len(vs), sk.EstimateF2(adj)), nil
}

// adjustmentForValue is the single-value top-k compensation vector,
// for the estimators that need it per cell (the error bar's F2 is not
// a shift of the row sums).
func (e *Engine) adjustmentForValue(v uint64) []int64 {
	if t := e.trackerFor(v); t != nil {
		return t.AdjustmentOne(v)
	}
	return nil
}

// trackedFreq is the number of v's instances top-k processing has
// deleted from v's sketch: 0 unless v is tracked.
//
//lint:hotpath
func (e *Engine) trackedFreq(v uint64) int64 {
	if t := e.trackerFor(v); t != nil {
		f, _ := t.Tracked(v)
		return f
	}
	return 0
}

// estimateValue runs the single-pattern query path on an already-mapped
// one-dimensional value: routed sketch estimate with top-k
// compensation, through a pooled estimator so repeated queries reuse
// the row and sign scratch. The compensation of a tracked value is a
// shift of every row sum (ams.Estimator.Count), so no per-cell vector
// is built. This is the estimator the auditor scores, so the audit
// report measures exactly the error a user-issued ordered query sees.
//
//lint:hotpath
func (e *Engine) estimateValue(v uint64) float64 {
	es := e.qest.Get().(*ams.Estimator)
	est := es.Count(e.streams.SketchFor(v), v, e.trackedFreq(v))
	e.qest.Put(es)
	return est
}
