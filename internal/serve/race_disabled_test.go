//go:build !race

package serve

// raceEnabled reports whether the race detector is active; see the race
// build-tagged twin.
const raceEnabled = false
