//go:build !race

package h5

// raceEnabled reports whether the race detector is active; see the race
// build-tagged counterpart.
const raceEnabled = false
