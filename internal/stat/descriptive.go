// Package stat provides the statistical substrate used throughout the
// reproduction: descriptive statistics, the Normal and Student-t
// distributions, paired t-tests with Cohen's d effect sizes, Cohen's kappa
// agreement on confusion matrices, and RMSE — everything the paper's
// evaluation section reports.
package stat

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n−1) sample variance of xs, or NaN when
// fewer than two values are supplied.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Median returns the median of xs, or NaN for an empty slice. The input is
// not modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th quantile of xs (0 ≤ q ≤ 1) using linear
// interpolation between order statistics. The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Min returns the smallest value in xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	min := xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
	}
	return min
}

// Max returns the largest value in xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	return max
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

// RMSE returns the root mean squared error between two equal-length series.
// It returns NaN if the lengths differ or are zero.
func RMSE(actual, predicted []float64) float64 {
	if len(actual) != len(predicted) || len(actual) == 0 {
		return math.NaN()
	}
	var ss float64
	for i, a := range actual {
		d := a - predicted[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(actual)))
}

// Rescale divides xs by a positive magnitude — its standard deviation,
// falling back to the mean absolute value, falling back to 1 — and returns
// the scaled copy and the divisor. The likelihood fits rescale their input
// with it, so variance estimation starts well-conditioned regardless of the
// series' magnitude.
func Rescale(xs []float64) (scaled []float64, scale float64) {
	return RescaleInto(nil, xs)
}

// RescaleInto is Rescale writing the scaled copy into dst's storage when it
// has the capacity.
func RescaleInto(dst, xs []float64) (scaled []float64, scale float64) {
	scale = StdDev(xs)
	if !(scale > 0) { // catches 0 and NaN
		var sum float64
		for _, x := range xs {
			sum += math.Abs(x)
		}
		scale = sum / float64(len(xs))
	}
	if !(scale > 0) {
		scale = 1
	}
	if cap(dst) < len(xs) {
		dst = make([]float64, len(xs))
	}
	scaled = dst[:len(xs)]
	for i, x := range xs {
		scaled[i] = x / scale
	}
	return scaled, scale
}
