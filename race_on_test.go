//go:build race

package sketchtree

// raceEnabled reports whether the race detector instruments this
// build. Allocation-count assertions over sync.Pool-backed paths are
// skipped under -race: instrumented pools drop entries at random, so
// Get may allocate.
const raceEnabled = true
