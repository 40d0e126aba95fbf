package ssm

import (
	"math"
	"testing"
)

func TestFitWithMissingMonths(t *testing.T) {
	// Claims pipelines occasionally miss a month of data; the filter treats
	// NaN as a missing observation and the fit must still work.
	y := synthSeries(43, 0, 20, 1.0, 0.3, 31)
	y[7] = math.NaN()
	y[8] = math.NaN()
	y[30] = math.NaN()
	fit, err := FitConfig(y, Config{ChangePoint: 20})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(fit.AIC) || math.IsInf(fit.AIC, 0) {
		t.Fatalf("AIC = %v", fit.AIC)
	}
	// λ should still recover the slope.
	if got := fit.Lambda * fit.Scale; math.Abs(got-1.0) > 0.4 {
		t.Fatalf("λ = %v, want ≈1.0", got)
	}
	d, err := fit.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	// The smoothed level interpolates across the gap (no NaN in components).
	for i, v := range d.Level {
		if math.IsNaN(v) {
			t.Fatalf("level NaN at %d", i)
		}
	}
	// Irregular is NaN exactly at missing points (observation − signal).
	if !math.IsNaN(d.Irregular[7]) || !math.IsNaN(d.Irregular[30]) {
		t.Fatal("irregular should be NaN at missing observations")
	}
	if math.IsNaN(d.Irregular[0]) {
		t.Fatal("irregular NaN at an observed point")
	}
}

func TestMissingMonthsReduceLikCount(t *testing.T) {
	y := synthSeries(43, 0, NoChangePoint, 0, 0.3, 32)
	full, err := FitConfig(y, Config{ChangePoint: NoChangePoint})
	if err != nil {
		t.Fatal(err)
	}
	y2 := append([]float64(nil), y...)
	y2[10] = math.NaN()
	y2[11] = math.NaN()
	gappy, err := FitConfig(y2, Config{ChangePoint: NoChangePoint})
	if err != nil {
		t.Fatal(err)
	}
	if gappy.Filter.LikCount != full.Filter.LikCount-2 {
		t.Fatalf("LikCount %d vs %d; missing months must not contribute",
			gappy.Filter.LikCount, full.Filter.LikCount)
	}
}

func TestAICAtWithAllMissingFails(t *testing.T) {
	y := make([]float64, 43)
	for i := range y {
		y[i] = math.NaN()
	}
	if _, _, err := AICAtOptions(y, Config{ChangePoint: NoChangePoint}, nil, FitOptions{}); err == nil {
		t.Fatal("all-missing series accepted")
	}
}
