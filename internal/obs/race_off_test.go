//go:build !race

package obs

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions skip under -race, where runtime bookkeeping
// makes testing.AllocsPerRun unrepresentative of production builds.
const raceEnabled = false
