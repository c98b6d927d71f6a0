//go:build race

package h5

// raceEnabled reports that the race detector is active: its
// instrumentation allocates, so zero-allocation assertions must be
// skipped (the -race CI job checks synchronization, not allocs).
const raceEnabled = true
