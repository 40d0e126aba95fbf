//go:build race

package mic_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
