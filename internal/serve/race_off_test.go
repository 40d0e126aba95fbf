//go:build !race

package serve

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions skip under -race, where runtime bookkeeping
// makes testing.AllocsPerRun unrepresentative of production builds.
const raceEnabled = false
