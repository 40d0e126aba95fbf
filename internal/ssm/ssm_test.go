package ssm

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

// synthSeries builds a test series: level drift + optional 12-month seasonal
// + optional slope shift at cp + Gaussian noise.
func synthSeries(n int, seasonalAmp float64, cp int, slope float64, noise float64, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 42))
	y := make([]float64, n)
	level := 10.0
	for t := 0; t < n; t++ {
		level += rng.NormFloat64() * 0.05
		v := level
		if seasonalAmp != 0 {
			v += seasonalAmp * math.Sin(2*math.Pi*float64(t)/12)
		}
		v += slope * InterventionRegressor(cp, t)
		v += rng.NormFloat64() * noise
		y[t] = v
	}
	return y
}

func TestInterventionRegressor(t *testing.T) {
	if InterventionRegressor(NoChangePoint, 5) != 0 {
		t.Fatal("no change point should give 0")
	}
	if InterventionRegressor(10, 9) != 0 {
		t.Fatal("before cp should give 0")
	}
	if InterventionRegressor(10, 10) != 1 {
		t.Fatal("at cp should give 1")
	}
	if InterventionRegressor(10, 14) != 5 {
		t.Fatal("slope shift increments by 1 per month")
	}
}

func TestConfigDims(t *testing.T) {
	cases := []struct {
		cfg       Config
		dim, k    int
		variances int
	}{
		{Config{ChangePoint: NoChangePoint}, 1, 3, 2},                               // LL
		{Config{Seasonal: true, Period: 12, ChangePoint: NoChangePoint}, 12, 15, 3}, // LL+S
		{Config{ChangePoint: 5}, 2, 4, 2},                                           // LL+I
		{Config{Seasonal: true, Period: 12, ChangePoint: 5}, 13, 16, 3},             // LL+S+I
	}
	for i, c := range cases {
		cfg := c.cfg.withDefaults()
		if got := cfg.stateDim(); got != c.dim {
			t.Errorf("case %d: dim = %d, want %d", i, got, c.dim)
		}
		if got := cfg.NumParams(); got != c.k {
			t.Errorf("case %d: NumParams = %d, want %d", i, got, c.k)
		}
		if got := cfg.numVariances(); got != c.variances {
			t.Errorf("case %d: variances = %d, want %d", i, got, c.variances)
		}
	}
}

func TestFitLocalLevelTracksLevel(t *testing.T) {
	y := synthSeries(43, 0, NoChangePoint, 0, 0.2, 1)
	fit, err := FitConfig(y, Config{ChangePoint: NoChangePoint})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(fit.AIC) || math.IsInf(fit.AIC, 0) {
		t.Fatalf("AIC = %v", fit.AIC)
	}
	d, err := fit.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	// The level component should stay near 10 throughout.
	for i := 2; i < len(y)-2; i++ {
		if math.Abs(d.Level[i]-10) > 1.5 {
			t.Fatalf("level[%d] = %v, want ≈10", i, d.Level[i])
		}
	}
	// Components must reconstruct the series exactly.
	for i := range y {
		recon := d.Level[i] + d.Seasonal[i] + d.Intervention[i] + d.Irregular[i]
		if math.Abs(recon-y[i]) > 1e-8 {
			t.Fatalf("reconstruction at %d: %v vs %v", i, recon, y[i])
		}
		if math.Abs(d.Fitted[i]+d.Irregular[i]-y[i]) > 1e-8 {
			t.Fatalf("fitted+irregular != y at %d", i)
		}
	}
}

func TestSeasonalModelExtractsSeasonality(t *testing.T) {
	y := synthSeries(48, 3.0, NoChangePoint, 0, 0.2, 2)
	fit, err := FitConfig(y, Config{Seasonal: true, ChangePoint: NoChangePoint})
	if err != nil {
		t.Fatal(err)
	}
	d, err := fit.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	// Seasonal component must capture most of the sine amplitude.
	var maxSeasonal float64
	for _, v := range d.Seasonal[12:36] {
		if a := math.Abs(v); a > maxSeasonal {
			maxSeasonal = a
		}
	}
	if maxSeasonal < 2.0 {
		t.Fatalf("seasonal amplitude = %v, want ≈3", maxSeasonal)
	}
	// And it should be roughly 12-periodic in the interior.
	for i := 14; i < 30; i++ {
		if math.Abs(d.Seasonal[i]-d.Seasonal[i+12]) > 1.0 {
			t.Fatalf("seasonal not periodic at %d: %v vs %v", i, d.Seasonal[i], d.Seasonal[i+12])
		}
	}
}

func TestSeasonalImprovesAICOnSeasonalSeries(t *testing.T) {
	y := synthSeries(43, 3.0, NoChangePoint, 0, 0.3, 3)
	ll, err := FitConfig(y, Config{ChangePoint: NoChangePoint})
	if err != nil {
		t.Fatal(err)
	}
	lls, err := FitConfig(y, Config{Seasonal: true, ChangePoint: NoChangePoint})
	if err != nil {
		t.Fatal(err)
	}
	if lls.AIC >= ll.AIC {
		t.Fatalf("seasonal AIC %v should beat plain LL %v on a seasonal series", lls.AIC, ll.AIC)
	}
}

func TestInterventionImprovesAICOnBrokenSeries(t *testing.T) {
	cp := 25
	y := synthSeries(43, 0, cp, 0.8, 0.3, 4)
	plain, err := FitConfig(y, Config{ChangePoint: NoChangePoint})
	if err != nil {
		t.Fatal(err)
	}
	withIv, err := FitConfig(y, Config{ChangePoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	if withIv.AIC >= plain.AIC {
		t.Fatalf("intervention AIC %v should beat plain %v on a broken series", withIv.AIC, plain.AIC)
	}
	// λ should be near the true slope (scaled back).
	lambda := withIv.Lambda * withIv.Scale
	if math.Abs(lambda-0.8) > 0.3 {
		t.Fatalf("λ = %v, want ≈0.8", lambda)
	}
}

func TestAICPrefersTrueChangePoint(t *testing.T) {
	cp := 20
	y := synthSeries(43, 0, cp, 1.0, 0.3, 5)
	aicTrue, _, err := AICAtOptions(y, Config{ChangePoint: cp}, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, wrong := range []int{5, 35} {
		aicWrong, _, err := AICAtOptions(y, Config{ChangePoint: wrong}, nil, FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if aicTrue >= aicWrong {
			t.Fatalf("AIC at true cp (%v) should beat cp=%d (%v)", aicTrue, wrong, aicWrong)
		}
	}
}

func TestInterventionNotPreferredOnStableSeries(t *testing.T) {
	y := synthSeries(43, 0, NoChangePoint, 0, 0.3, 6)
	plain, err := FitConfig(y, Config{ChangePoint: NoChangePoint})
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for cp := 2; cp < 41; cp += 6 {
		aic, _, err := AICAtOptions(y, Config{ChangePoint: cp}, nil, FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if aic < best {
			best = aic
		}
	}
	if best < plain.AIC-2 {
		t.Fatalf("an intervention (AIC %v) decisively beat the plain model (%v) on a stable series", best, plain.AIC)
	}
}

func TestForecastContinuesSlopeShift(t *testing.T) {
	cp := 20
	n := 36
	y := synthSeries(n, 0, cp, 1.0, 0.2, 7)
	fit, err := FitConfig(y, Config{ChangePoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	mean, se, err := fit.Forecast(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(mean) != 6 || len(se) != 6 {
		t.Fatal("wrong forecast length")
	}
	// The slope shift must keep increasing the forecast.
	for i := 1; i < 6; i++ {
		if mean[i] <= mean[i-1] {
			t.Fatalf("forecast should keep rising after a slope shift: %v", mean)
		}
	}
	// First forecast should continue from the end of the series.
	if math.Abs(mean[0]-y[n-1]) > 5 {
		t.Fatalf("forecast start %v far from last observation %v", mean[0], y[n-1])
	}
	if _, _, err := fit.Forecast(0); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := FitConfig([]float64{1, 2, 3}, Config{ChangePoint: NoChangePoint}); !errors.Is(err, ErrSeriesTooShort) {
		t.Fatalf("short series: err = %v", err)
	}
	y := synthSeries(43, 0, NoChangePoint, 0, 0.3, 8)
	if _, err := FitConfig(y, Config{ChangePoint: 99}); err == nil {
		t.Fatal("out-of-range change point accepted")
	}
}

func TestFitConstantSeries(t *testing.T) {
	y := make([]float64, 43) // all zeros — e.g. a pair that never occurs
	fit, err := FitConfig(y, Config{ChangePoint: NoChangePoint})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(fit.AIC) {
		t.Fatal("constant series produced NaN AIC")
	}
}

func TestFitDeterministic(t *testing.T) {
	y := synthSeries(43, 2, 15, 0.5, 0.3, 9)
	a, err := FitConfig(y, Config{Seasonal: true, ChangePoint: 15})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitConfig(y, Config{Seasonal: true, ChangePoint: 15})
	if err != nil {
		t.Fatal(err)
	}
	if a.AIC != b.AIC || a.LogLik != b.LogLik {
		t.Fatal("fitting is not deterministic")
	}
}
