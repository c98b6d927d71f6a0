//go:build race

package serve

// raceEnabled reports that the race detector is active: its
// instrumentation allocates, so allocation assertions must be skipped.
const raceEnabled = true
