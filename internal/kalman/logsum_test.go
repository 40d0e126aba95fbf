package kalman

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestLogSumMatchesSumOfLogs checks the accumulator at the edges of the
// product's range and over long runs. Each edge term must take its intended
// branch — the product for [2⁻¹⁰⁰⁰, 2¹⁰⁰⁰), the direct log outside — and
// every sum must stay within 1e-13 of the per-step sum of logs, relative to
// Σ |log x|.
func TestLogSumMatchesSumOfLogs(t *testing.T) {
	lo, hi := 0x1p-1000, 0x1p1000
	edges := []struct {
		name   string
		x      float64
		direct bool
	}{
		{"2^-1000", lo, false},
		{"below 2^-1000", math.Nextafter(lo, 0), true},
		{"below 2^1000", math.Nextafter(hi, 0), false},
		{"2^1000", hi, true},
		{"one", 1, false},
		{"tiny normal", 1e-305, true},
		{"smallest normal", 0x1p-1022, true},
		{"subnormal", 1e-310, true},
		{"smallest subnormal", math.SmallestNonzeroFloat64, true},
		{"huge", 1e305, true},
		{"largest", math.MaxFloat64, true},
	}
	for _, e := range edges {
		s := LogSum{}.Add(e.x)
		if e.direct {
			// The direct branch leaves the product at 1.
			if s.direct != math.Log(e.x) || s.exp != 0 || s.frac != 0 {
				t.Errorf("%s (%g): %+v, want the direct log %v", e.name, e.x, s, math.Log(e.x))
			}
		} else {
			// 1 × x is exact: the product holds x's own exponent and
			// fraction.
			b := math.Float64bits(e.x)
			if s.direct != 0 || s.exp != int(b>>52)-1023 || s.frac != b&fracBits {
				t.Errorf("%s (%g): %+v, want x in the product", e.name, e.x, s)
			}
		}
		if got, want := s.Sum(), math.Log(e.x); math.Abs(got-want) > 1e-13*math.Abs(want) {
			t.Errorf("%s (%g): Sum %v, log %v", e.name, e.x, got, want)
		}
	}
	if got := (LogSum{}).Sum(); got != 0 || math.Signbit(got) {
		t.Errorf("empty Sum = %v, want +0", got)
	}

	check := func(name string, xs []float64) LogSum {
		t.Helper()
		var s LogSum
		var want, scale float64
		for _, x := range xs {
			s = s.Add(x)
			want += math.Log(x)
			scale += math.Abs(math.Log(x))
		}
		if got := s.Sum(); math.Abs(got-want) > 1e-13*scale {
			t.Errorf("%s: Sum %v, per-step logs %v (relative %.3g)", name, got, want, math.Abs(got-want)/scale)
		}
		return s
	}

	// The edge terms in one sum, each after the product's mantissa has left
	// 1: a mantissa near 2 times a term near the range's ends is where a
	// product without the direct branch would overflow or go subnormal.
	var mixed []float64
	for _, e := range edges {
		mixed = append(mixed, 1.9999999, e.x)
	}
	check("edges", mixed)

	// 10⁵ steps whose product drifts far out of float64 range, upwards and
	// downwards, plus a run around 1 where the logs cancel.
	rng := rand.New(rand.NewPCG(3, 7))
	for _, run := range []struct {
		name     string
		lo, span float64 // log x ~ U(lo, lo+span)
		minExp   int     // |exponent| the product must reach
	}{
		{"up", 3, 6, 500_000},
		{"down", -9, 6, 500_000},
		{"around one", -1, 2, 0},
	} {
		xs := make([]float64, 100_000)
		for i := range xs {
			xs[i] = math.Exp(run.lo + run.span*rng.Float64())
		}
		s := check(run.name, xs)
		if s.direct != 0 {
			t.Errorf("%s: a term took the direct log", run.name)
		}
		if e := s.exp; max(e, -e) < run.minExp {
			t.Errorf("%s: exponent %d, want |exponent| ≥ %d", run.name, e, run.minExp)
		}
	}
}
