package arima

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"mictrend/internal/stat"
)

// simulateAR1 draws an AR(1) series with coefficient phi and unit variance
// innovations.
func simulateAR1(n int, phi float64, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 1))
	y := make([]float64, n)
	x := 0.0
	for i := range y {
		x = phi*x + rng.NormFloat64()
		y[i] = x
	}
	return y
}

func TestPacfToARStationarity(t *testing.T) {
	// Property: the implied AR polynomial is stationary for any raw input —
	// verify |roots| > 1 via the companion matrix spectral radius proxy:
	// simulate and check boundedness.
	f := func(r1, r2, r3 int16) bool {
		raw := []float64{float64(r1) / 1000, float64(r2) / 1000, float64(r3) / 1000}
		ar := pacfToAR(raw)
		// Iterate the deterministic recursion from a unit impulse; a
		// stationary polynomial must decay, not blow up.
		h := []float64{1, 0, 0}
		val := 1.0
		for i := 0; i < 500; i++ {
			next := ar[0]*h[0] + ar[1]*h[1] + ar[2]*h[2]
			h[2], h[1], h[0] = h[1], h[0], next
			val = math.Abs(next)
			if math.IsInf(val, 0) || math.IsNaN(val) {
				return false
			}
		}
		return val < 1e6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPacfToARSingleCoefficient(t *testing.T) {
	ar := pacfToAR([]float64{math.Atanh(0.7)})
	if len(ar) != 1 || math.Abs(ar[0]-0.7) > 1e-12 {
		t.Fatalf("ar = %v, want [0.7]", ar)
	}
	if got := pacfToAR(nil); got != nil {
		t.Fatalf("empty input should give nil, got %v", got)
	}
}

func TestDifferenceAndIntegrateRoundTrip(t *testing.T) {
	y := []float64{1, 4, 9, 16, 25, 36}
	d1 := difference(y, 1)
	want := []float64{3, 5, 7, 9, 11}
	for i := range want {
		if d1[i] != want[i] {
			t.Fatalf("difference = %v", d1)
		}
	}
	d2 := difference(y, 2)
	if d2[0] != 2 || d2[3] != 2 {
		t.Fatalf("second difference = %v", d2)
	}
	// Integrating a continuation of the differenced series must continue the
	// original pattern: squares continue 49, 64.
	fc := integrate(y, []float64{13, 15}, 1)
	if fc[0] != 49 || fc[1] != 64 {
		t.Fatalf("integrate d=1 = %v, want [49 64]", fc)
	}
	fc2 := integrate(y, []float64{2, 2}, 2)
	if fc2[0] != 49 || fc2[1] != 64 {
		t.Fatalf("integrate d=2 = %v, want [49 64]", fc2)
	}
	fc0 := integrate(y, []float64{7}, 0)
	if fc0[0] != 7 {
		t.Fatalf("integrate d=0 = %v", fc0)
	}
}

func TestFitAR1RecoversCoefficient(t *testing.T) {
	y := simulateAR1(400, 0.6, 2)
	fit, err := FitOrder(y, Order{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.AR[0]-0.6) > 0.1 {
		t.Fatalf("phi = %v, want ≈0.6", fit.AR[0])
	}
	if math.IsNaN(fit.AIC) || math.IsInf(fit.AIC, 0) {
		t.Fatalf("AIC = %v", fit.AIC)
	}
}

func TestFitMA1RecoversCoefficient(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	n := 500
	theta := 0.5
	y := make([]float64, n)
	prev := rng.NormFloat64()
	for i := range y {
		e := rng.NormFloat64()
		y[i] = e + theta*prev
		prev = e
	}
	fit, err := FitOrder(y, Order{Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.MA[0]-theta) > 0.12 {
		t.Fatalf("theta = %v, want ≈0.5", fit.MA[0])
	}
}

func TestFitWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	y := make([]float64, 200)
	for i := range y {
		y[i] = 3 + rng.NormFloat64()
	}
	fit, err := FitOrder(y, Order{})
	if err != nil {
		t.Fatal(err)
	}
	// Scaled variance should be ≈1 (the series was rescaled to unit SD).
	if math.Abs(fit.Var-1) > 0.25 {
		t.Fatalf("variance = %v, want ≈1", fit.Var)
	}
}

func TestSelectPrefersCorrectOrderFamily(t *testing.T) {
	// Strong AR(1) on a random walk: differenced fits should win for a
	// trending series; a stationary AR series should not demand d=1.
	y := simulateAR1(300, 0.5, 7)
	fit, err := Select(y, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Order.D != 0 {
		t.Fatalf("stationary series selected %v", fit.Order)
	}
	// Random walk: cumulative sum of noise → d=1 expected.
	rng := rand.New(rand.NewPCG(9, 10))
	rw := make([]float64, 300)
	level := 0.0
	for i := range rw {
		level += rng.NormFloat64()
		rw[i] = level
	}
	fitRW, err := Select(rw, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fitRW.Order.D != 1 {
		t.Fatalf("random walk selected %v, want d=1", fitRW.Order)
	}
}

func TestForecastRandomWalkIsFlat(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	y := make([]float64, 100)
	level := 50.0
	for i := range y {
		level += rng.NormFloat64() * 0.1
		y[i] = level
	}
	fit, err := FitOrder(y, Order{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := fit.Forecast(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fc {
		if math.Abs(v-y[99]) > 1.0 {
			t.Fatalf("random-walk forecast %v far from last value %v", v, y[99])
		}
	}
	if _, err := fit.Forecast(0); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestForecastTrendingSeriesContinuesTrend(t *testing.T) {
	// Deterministic upward trend: ARIMA with d=1 should forecast a rising
	// continuation (drift is captured by the differenced mean).
	y := make([]float64, 60)
	for i := range y {
		y[i] = 2 * float64(i)
	}
	fit, err := FitOrder(y, Order{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := fit.Forecast(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fc {
		want := 2 * float64(60+i)
		if math.Abs(v-want) > 1.0 {
			t.Fatalf("trend forecast[%d] = %v, want ≈%v", i, v, want)
		}
	}
}

func TestOrderValidation(t *testing.T) {
	if err := (Order{P: -1}).Validate(); err == nil {
		t.Fatal("negative order accepted")
	}
	if err := (Order{P: 9}).Validate(); err == nil {
		t.Fatal("huge order accepted")
	}
	if _, err := FitOrder([]float64{1, 2, 3}, Order{P: 2, Q: 2}); err == nil {
		t.Fatal("short series accepted")
	}
}

func TestStationaryCovarianceAR1(t *testing.T) {
	// For AR(1) with coefficient phi and unit innovation variance, the
	// stationary variance is 1/(1−phi²).
	ar := []float64{0.8}
	m, err := buildARMA(ar, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := m.P1.At(0, 0)
	want := 1 / (1 - 0.64)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("stationary variance = %v, want %v", got, want)
	}
}

func TestSelectDeterministic(t *testing.T) {
	y := simulateAR1(120, 0.4, 21)
	a, err := Select(y, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Select(y, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Order != b.Order || a.AIC != b.AIC {
		t.Fatal("selection not deterministic")
	}
}

// ulpSeries is a 43-month random walk plus a 12-month sine plus noise, the
// shape of a reproduced monthly prescription series.
func ulpSeries(seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 77))
	y := make([]float64, 43)
	level := 10.0
	for i := range y {
		level += 0.3 * rng.NormFloat64()
		y[i] = level + math.Sin(2*math.Pi*float64(i)/12) + 0.5*rng.NormFloat64()
	}
	return y
}

// bumped returns y with y[j] raised by one ulp.
func bumped(y []float64, j int) []float64 {
	out := append([]float64(nil), y...)
	out[j] = math.Nextafter(out[j], math.Inf(1))
	return out
}

// ulpPositions are the inputs bumped for series seed: two per series,
// which over seeds 1–40 reach every one of the 43 months.
func ulpPositions(seed uint64, n int) []int {
	return []int{int(seed) % n, int(seed+21) % n}
}

// TestOneULPStable checks that the fitted likelihood is a continuous
// function of the data. Over 40 series, raising a single input by one ulp
// moves the AIC of every (p, q) ≤ (2, 2) fit at d = 0 by at most 1e-6, and
// Select's AIC by as little; Select's order may change only between two
// orders whose AICs were within 1e-6.
func TestOneULPStable(t *testing.T) {
	const tol = 1e-6
	var worst float64
	check := func(what string, base, got float64) {
		t.Helper()
		d := math.Abs(got - base)
		worst = math.Max(worst, d)
		if d > tol {
			t.Fatalf("%s: one ulp moved AIC %v → %v", what, base, got)
		}
	}
	for seed := uint64(1); seed <= 40; seed++ {
		y := ulpSeries(seed)
		sel, err := Select(y, SelectOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var bases [3][3]*Fit
		for p := range bases {
			for q := range bases[p] {
				if bases[p][q], err = FitOrder(y, Order{P: p, Q: q}); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
		for _, j := range ulpPositions(seed, len(y)) {
			yb := bumped(y, j)
			for p := range bases {
				for _, base := range bases[p] {
					fit, err := FitOrder(yb, base.Order)
					if err != nil {
						t.Fatalf("seed %d %v y[%d]+ulp: %v", seed, base.Order, j, err)
					}
					check(fmt.Sprintf("seed %d %v y[%d]", seed, base.Order, j), base.AIC, fit.AIC)
				}
			}
			got, err := Select(yb, SelectOptions{})
			if err != nil {
				t.Fatalf("seed %d Select y[%d]+ulp: %v", seed, j, err)
			}
			check(fmt.Sprintf("seed %d Select y[%d]", seed, j), sel.AIC, got.AIC)
			if got.Order != sel.Order {
				other, err := FitOrder(y, got.Order)
				if err != nil {
					t.Fatalf("seed %d %v: %v", seed, got.Order, err)
				}
				if math.Abs(other.AIC-sel.AIC) > tol {
					t.Fatalf("seed %d y[%d]+ulp: Select moved %v → %v, whose AICs were %v and %v",
						seed, j, sel.Order, got.Order, sel.AIC, other.AIC)
				}
			}
		}
	}
	t.Logf("worst one-ulp AIC move %.3g", worst)
}

// TestWhiteNoiseOrderIsClosedForm checks that ARIMA(0,d,0) is the closed
// form −n/2·(log(2π·σ̂²)+1), σ̂² the mean square of the centered differenced
// series.
func TestWhiteNoiseOrderIsClosedForm(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		y := ulpSeries(seed)
		for d := 0; d <= 2; d++ {
			fit, err := FitOrder(y, Order{D: d})
			if err != nil {
				t.Fatal(err)
			}
			scaled, _ := stat.Rescale(y)
			diffed := difference(scaled, d)
			mean := stat.Mean(diffed)
			var ss float64
			for _, v := range diffed {
				ss += (v - mean) * (v - mean)
			}
			n := float64(len(diffed))
			want := -n / 2 * (math.Log(2*math.Pi*ss/n) + 1)
			if math.Abs(fit.LogLik-want) > 1e-9 || math.Abs(fit.Var-ss/n) > 1e-12 {
				t.Fatalf("seed %d d=%d: LogLik %v Var %v, want %v and %v", seed, d, fit.LogLik, fit.Var, want, ss/n)
			}
		}
	}
}
