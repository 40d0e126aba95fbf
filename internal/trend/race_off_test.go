//go:build !race

package trend

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
