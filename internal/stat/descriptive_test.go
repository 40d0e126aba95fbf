package stat

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
		{nil, math.NaN()},
	}
	for i, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("case %d: Mean = %v, want %v", i, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 denominator = 32/7.
	if got, want := Variance(xs), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %v", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of a single value should be NaN")
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("Median odd = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("Median even = %v, want 2.5", got)
	}
	if got := Quantile([]float64{1, 2, 3, 4, 5}, 0); got != 1 {
		t.Fatalf("Quantile 0 = %v, want 1", got)
	}
	if got := Quantile([]float64{1, 2, 3, 4, 5}, 1); got != 5 {
		t.Fatalf("Quantile 1 = %v, want 5", got)
	}
	if got := Quantile([]float64{1, 2, 3, 4}, 0.25); !almostEqual(got, 1.75, 1e-12) {
		t.Fatalf("Quantile 0.25 = %v, want 1.75", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) || !math.IsNaN(Quantile([]float64{1}, -0.1)) {
		t.Fatal("invalid quantile inputs should return NaN")
	}
}

func TestQuantileDoesNotModifyInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Median modified its input: %v", xs)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 || Sum(xs) != 12 {
		t.Fatalf("Min/Max/Sum = %v/%v/%v", Min(xs), Max(xs), Sum(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Fatal("Min/Max of empty should be NaN")
	}
}

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("RMSE identical = %v, want 0", got)
	}
	if got := RMSE([]float64{0, 0}, []float64{3, 4}); !almostEqual(got, math.Sqrt(12.5), 1e-12) {
		t.Fatalf("RMSE = %v", got)
	}
	if !math.IsNaN(RMSE([]float64{1}, []float64{1, 2})) {
		t.Fatal("length mismatch should be NaN")
	}
}

// Property: mean is translation-equivariant and variance translation-invariant.
func TestMeanVarianceShiftProperty(t *testing.T) {
	f := func(seed uint64, shiftRaw int8) bool {
		r := rand.New(rand.NewPCG(seed, 101))
		n := 3 + int(seed%20)
		xs := make([]float64, n)
		shifted := make([]float64, n)
		shift := float64(shiftRaw)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
			shifted[i] = xs[i] + shift
		}
		return almostEqual(Mean(shifted), Mean(xs)+shift, 1e-9) &&
			almostEqual(Variance(shifted), Variance(xs), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile is monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 102))
		n := 2 + int(seed%30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.1 {
			qq := math.Min(q, 1)
			v := Quantile(xs, qq)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRescale(t *testing.T) {
	scaled, scale := Rescale([]float64{10, 20, 30})
	if scale <= 0 {
		t.Fatalf("scale = %v", scale)
	}
	if math.Abs(scaled[2]*scale-30) > 1e-12 {
		t.Fatal("Rescale is not invertible")
	}
	// Constant nonzero series falls back to mean magnitude.
	_, scale2 := Rescale([]float64{5, 5, 5})
	if scale2 != 5 {
		t.Fatalf("constant scale = %v, want 5", scale2)
	}
	// All-zero series falls back to 1.
	_, scale3 := Rescale([]float64{0, 0})
	if scale3 != 1 {
		t.Fatalf("zero scale = %v, want 1", scale3)
	}
}
