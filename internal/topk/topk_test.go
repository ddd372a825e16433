package topk

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"sketchtree/internal/ams"
	"sketchtree/internal/gf2"
	"sketchtree/internal/xi"
)

func newSketch(t testing.TB, s1, s2 int, seed uint64) *ams.Sketch {
	t.Helper()
	fam := xi.NewBCHFamily(gf2.MustField(1<<63 | 1<<1 | 1))
	se, err := ams.NewSeeds(fam, s1, s2, rand.New(rand.NewPCG(seed, 29)))
	if err != nil {
		t.Fatal(err)
	}
	return se.NewSketch()
}

// process feeds a value arrival through the fused sketch update +
// Algorithm 4, the order prescribed by Algorithm 1.
func process(tr *Tracker, sk *ams.Sketch, v uint64) {
	se := sk.Seeds()
	ps, signs := se.NewPass(), make([]uint64, se.Batch().SignWords())
	se.Batch().Signs(se.Prepare(v, nil), signs)
	sk.UpdatePass(signs, 1, ps)
	tr.Process(v, ps)
}

func TestNewValidation(t *testing.T) {
	sk := newSketch(t, 2, 2, 1)
	if _, err := New(0, sk); err == nil {
		t.Error("k=0 must be rejected")
	}
	if _, err := New(5, nil); err == nil {
		t.Error("nil sketch must be rejected")
	}
	tr, err := New(5, sk)
	if err != nil {
		t.Fatal(err)
	}
	if tr.K() != 5 || tr.Len() != 0 {
		t.Error("accessors wrong")
	}
}

func TestSingleHeavyValueTracked(t *testing.T) {
	sk := newSketch(t, 8, 5, 2)
	tr, _ := New(3, sk)
	for i := 0; i < 50; i++ {
		process(tr, sk, 42)
	}
	f, ok := tr.Tracked(42)
	if !ok {
		t.Fatal("heavy value not tracked")
	}
	if f != 50 {
		t.Errorf("tracked freq = %d, want 50 (single-value stream estimates are exact)", f)
	}
	// The sketch must now be empty: all 50 instances were deleted.
	if !sk.IsZero() {
		t.Error("sketch should be zero after deleting the only value")
	}
}

// The delete condition: restoring everything must reproduce exactly
// the sketch that plain processing (no top-k) would have produced.
func TestQuickRestoreAllMatchesPlainSketch(t *testing.T) {
	f := func(raw []uint16, kk uint8) bool {
		k := int(kk%5) + 1
		sk := newSketch(t, 4, 3, 77)
		plain := newSketch(t, 4, 3, 77) // same seed → same generators
		tr, err := New(k, sk)
		if err != nil {
			return false
		}
		for _, r := range raw {
			v := uint64(r % 20)
			process(tr, sk, v)
			plain.Update(v, 1)
		}
		tr.RestoreAll()
		for c := 0; c < sk.Seeds().Cells(); c++ {
			if sk.Counter(c) != plain.Counter(c) {
				return false
			}
		}
		return tr.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Compensated estimates: after heavy hitters are deleted, a query for
// a tracked value with the Adjustment vector must still land near the
// true count.
func TestAdjustedEstimateAccuracy(t *testing.T) {
	sk := newSketch(t, 64, 7, 3)
	tr, _ := New(2, sk)
	// Two heavy values and a light tail.
	for i := 0; i < 300; i++ {
		process(tr, sk, 1)
	}
	for i := 0; i < 200; i++ {
		process(tr, sk, 2)
	}
	for v := uint64(10); v < 30; v++ {
		for i := 0; i < 3; i++ {
			process(tr, sk, v)
		}
	}
	if tr.Len() != 2 {
		t.Fatalf("tracked %d values, want 2", tr.Len())
	}
	for _, want := range []struct {
		v uint64
		f float64
	}{{1, 300}, {2, 200}} {
		adj := tr.Adjustment([]uint64{want.v})
		if adj == nil {
			t.Fatalf("no adjustment for tracked value %d", want.v)
		}
		got := sk.EstimateCount(want.v, adj)
		if math.Abs(got-want.f) > want.f*0.2 {
			t.Errorf("adjusted estimate for %d = %v, want ≈ %v", want.v, got, want.f)
		}
	}
	// Untracked light value: no adjustment needed, estimate from the
	// lightened sketch.
	if adj := tr.Adjustment([]uint64{15}); adj != nil {
		t.Error("untracked value must not produce an adjustment")
	}
	got := sk.EstimateCount(15, nil)
	if math.Abs(got-3) > 6 {
		t.Errorf("light value estimate %v, want ≈ 3", got)
	}
}

// Deleting heavy hitters must shrink the residual self-join size —
// the entire point of the strategy.
func TestSelfJoinReduction(t *testing.T) {
	sk := newSketch(t, 64, 7, 4)
	tr, _ := New(4, sk)
	counts := map[uint64]int{1: 400, 2: 300, 3: 200, 4: 100}
	// Interleave deterministically.
	for i := 0; i < 400; i++ {
		for v, n := range counts {
			if i < n {
				process(tr, sk, v)
			}
		}
		if i < 40 {
			process(tr, sk, uint64(100+i)) // light tail
		}
	}
	// Full SJ ≈ 400²+300²+200²+100² = 300000; residual should be far
	// smaller once the four heavy values are deleted.
	resid := sk.EstimateF2(nil)
	if resid > 60000 {
		t.Errorf("residual F2 = %v, want far below 300000", resid)
	}
	if tr.Len() != 4 {
		t.Errorf("tracked %d, want 4", tr.Len())
	}
}

func TestEvictionKeepsHeaviest(t *testing.T) {
	sk := newSketch(t, 64, 7, 5)
	tr, _ := New(2, sk)
	for i := 0; i < 100; i++ {
		process(tr, sk, 1)
	}
	for i := 0; i < 90; i++ {
		process(tr, sk, 2)
	}
	for i := 0; i < 80; i++ {
		process(tr, sk, 3)
	}
	// Capacity 2: values 1 and 2 (heaviest) should be tracked; value 3
	// may transiently displace but its final arrivals re-admit the
	// heavier ones... verify the tracked set covers the two heaviest.
	ents := tr.Entries()
	if len(ents) != 2 {
		t.Fatalf("entries = %v", ents)
	}
	if ents[0].Freq < ents[1].Freq {
		t.Error("entries must be sorted descending")
	}
	for _, e := range ents {
		if e.Value == 0 || e.Freq <= 0 {
			t.Errorf("bad entry %+v", e)
		}
	}
}

func TestAdjustmentDeduplicatesQueryValues(t *testing.T) {
	sk := newSketch(t, 8, 3, 6)
	tr, _ := New(2, sk)
	for i := 0; i < 50; i++ {
		process(tr, sk, 7)
	}
	once := tr.Adjustment([]uint64{7})
	twice := tr.Adjustment([]uint64{7, 7})
	for c := range once {
		if once[c] != twice[c] {
			t.Fatal("duplicate query values must not double the adjustment")
		}
	}
}

func TestAdjustmentAllAndMemory(t *testing.T) {
	sk := newSketch(t, 8, 3, 7)
	tr, _ := New(3, sk)
	if tr.AdjustmentAll() != nil {
		t.Error("empty tracker must return nil adjustment")
	}
	for i := 0; i < 30; i++ {
		process(tr, sk, 5)
	}
	for i := 0; i < 20; i++ {
		process(tr, sk, 6)
	}
	adj := tr.AdjustmentAll()
	if adj == nil {
		t.Fatal("expected adjustment for tracked values")
	}
	// With all values tracked and compensated, F2 must look like the
	// full stream again: 30² + 20² = 1300.
	f2 := sk.EstimateF2(adj)
	if math.Abs(f2-1300) > 450 {
		t.Errorf("compensated F2 = %v, want ≈ 1300", f2)
	}
	if tr.MemoryBytes() != 2*40 {
		t.Errorf("MemoryBytes = %d, want 80", tr.MemoryBytes())
	}
}

func TestReprocessingTrackedValueKeepsDeleteCondition(t *testing.T) {
	sk := newSketch(t, 16, 5, 8)
	tr, _ := New(1, sk)
	for i := 0; i < 10; i++ {
		process(tr, sk, 3)
	}
	f1, ok := tr.Tracked(3)
	if !ok {
		t.Fatal("value 3 should be tracked")
	}
	// More arrivals of the same value: the stored frequency must grow
	// with the stream (single-value stream → exact estimates).
	for i := 0; i < 10; i++ {
		process(tr, sk, 3)
	}
	f2, ok := tr.Tracked(3)
	if !ok || f2 <= f1 {
		t.Errorf("stored frequency %d should exceed earlier %d", f2, f1)
	}
	if f2 != 20 {
		t.Errorf("stored frequency = %d, want 20", f2)
	}
	if !sk.IsZero() {
		t.Error("single-value stream fully tracked: sketch must be zero")
	}
}

func BenchmarkProcess(b *testing.B) {
	sk := newSketch(b, 25, 7, 9)
	tr, _ := New(50, sk)
	rng := rand.New(rand.NewPCG(10, 11))
	vals := make([]uint64, 1024)
	for i := range vals {
		vals[i] = uint64(rng.ExpFloat64() * 20) // skewed
	}
	p, ps := &xi.Prep{}, sk.Seeds().NewPass()
	signs := make([]uint64, sk.Seeds().Batch().SignWords())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vals[i%len(vals)]
		sk.Seeds().Prepare(v, p)
		sk.Seeds().Batch().Signs(p, signs)
		sk.UpdatePass(signs, 1, ps)
		tr.Process(v, ps)
	}
}

func TestRestoreRebuildsTracker(t *testing.T) {
	sk := newSketch(t, 8, 5, 20)
	tr, _ := New(3, sk)
	for i := 0; i < 40; i++ {
		process(tr, sk, 5)
	}
	for i := 0; i < 25; i++ {
		process(tr, sk, 6)
	}
	entries := tr.Entries()
	// Persist counters + entries, rebuild, and compare behaviour.
	re, err := sk.Seeds().SketchFromCounters(sk.Counters())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Restore(3, re, entries)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Len() != tr.Len() {
		t.Fatalf("restored %d entries, want %d", rt.Len(), tr.Len())
	}
	for _, vf := range entries {
		f, ok := rt.Tracked(vf.Value)
		if !ok || f != vf.Freq {
			t.Errorf("entry %d: restored freq %d, want %d", vf.Value, f, vf.Freq)
		}
	}
	// Adjustment vectors must match exactly.
	a := tr.Adjustment([]uint64{5, 6})
	b := rt.Adjustment([]uint64{5, 6})
	for c := range a {
		if a[c] != b[c] {
			t.Fatal("restored adjustment differs")
		}
	}
	// Continued processing keeps the delete condition: restore-all
	// equals the plain sketch.
	for i := 0; i < 10; i++ {
		process(rt, re, 7)
	}
	rt.RestoreAll()
	plain := newSketch(t, 8, 5, 20)
	for i := 0; i < 40; i++ {
		plain.Update(5, 1)
	}
	for i := 0; i < 25; i++ {
		plain.Update(6, 1)
	}
	for i := 0; i < 10; i++ {
		plain.Update(7, 1)
	}
	for c := 0; c < plain.Seeds().Cells(); c++ {
		if re.Counter(c) != plain.Counter(c) {
			t.Fatal("restored tracker breaks the delete condition")
		}
	}
}

func TestRestoreValidation(t *testing.T) {
	sk := newSketch(t, 2, 2, 21)
	if _, err := Restore(1, sk, []ValueFreq{{1, 5}, {2, 3}}); err == nil {
		t.Error("entries beyond capacity must fail")
	}
	if _, err := Restore(3, sk, []ValueFreq{{1, 0}}); err == nil {
		t.Error("non-positive frequency must fail")
	}
	if _, err := Restore(3, sk, []ValueFreq{{1, 5}, {1, 3}}); err == nil {
		t.Error("duplicate values must fail")
	}
	if _, err := Restore(0, sk, nil); err == nil {
		t.Error("invalid capacity must fail")
	}
}

// TestProcessZeroAlloc pins the Algorithm 4 hot path at zero heap
// allocations per arrival once the tracker has warmed up: the
// re-estimation reads the caller's pass, evictions re-prepare through
// the tracker's Prep, and list entries come off the free list.
func TestProcessZeroAlloc(t *testing.T) {
	sk := newSketch(t, 8, 5, 23)
	tr, err := New(4, sk)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: fill the tracker and force evictions so the free list
	// and heap reach steady-state capacity.
	vals := []uint64{3, 5, 7, 11, 13, 17}
	for i := 0; i < 30; i++ {
		for _, v := range vals {
			process(tr, sk, v)
		}
	}
	p, ps := &xi.Prep{}, sk.Seeds().NewPass()
	signs := make([]uint64, sk.Seeds().Batch().SignWords())
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		v := vals[i%len(vals)]
		i++
		sk.Seeds().Prepare(v, p)
		sk.Seeds().Batch().Signs(p, signs)
		sk.UpdatePass(signs, 1, ps)
		tr.Process(v, ps)
	})
	if allocs != 0 {
		t.Fatalf("Process allocates %.1f times per arrival, want 0", allocs)
	}
}
