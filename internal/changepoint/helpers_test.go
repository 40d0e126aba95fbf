package changepoint

// Shared test fixtures: seeded series, bitwise result comparison, and a
// goroutine-leak poll.

import (
	"math/rand/v2"
	"runtime"
	"time"

	"mictrend/internal/ssm"
)

// randomSeries builds a seeded random-walk series, with a slope break at a
// seed-dependent month on odd seeds so the property tests cover both the
// detected and undetected outcomes.
func randomSeries(seed uint64, n int) []float64 {
	rng := rand.New(rand.NewPCG(seed, 991))
	y := make([]float64, n)
	level := 10 + rng.Float64()*20
	cp := NoBreak
	if seed%2 == 1 {
		cp = n/3 + int(seed%uint64(n/3))
	}
	for t := range y {
		level += rng.NormFloat64() * 0.3
		y[t] = level + rng.NormFloat64()*0.5
		if cp != NoBreak {
			y[t] += 0.8 * ssm.InterventionRegressor(cp, t)
		}
	}
	return y
}

// NoBreak marks seeds whose series carries no synthetic break.
const NoBreak = -1

// resultsEqual compares two results bit for bit, Fits included.
func resultsEqual(a, b Result) bool {
	return a.ChangePoint == b.ChangePoint && a.AIC == b.AIC &&
		a.NoChangeAIC == b.NoChangeAIC && a.Fits == b.Fits
}

// waitGoroutines polls until the goroutine count drops back to base or the
// deadline passes, returning the final count.
func waitGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}
