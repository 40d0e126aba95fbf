//go:build race

package medmodel

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
