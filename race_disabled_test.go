//go:build !race

package hpacml_test

// raceEnabled reports whether the race detector is active; see the race
// build-tagged counterpart.
const raceEnabled = false
