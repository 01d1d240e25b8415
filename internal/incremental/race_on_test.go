//go:build race

package incremental_test

// raceEnabled reports whether the race detector is active; its
// instrumentation perturbs allocation counts, so alloc-budget assertions
// skip under -race.
const raceEnabled = true
