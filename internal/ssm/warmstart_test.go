package ssm

import (
	"math"
	"strings"
	"testing"

	"mictrend/internal/kalman"
)

// TestWarmStartWinsOutright fits a series cold, then refits it warm from the
// cold optimum: the warm fit must win on the first attempt, land on (nearly)
// the same likelihood, and cost fewer objective evaluations than a fresh
// cold fit would — that saving is the whole point of warm-started scans.
func TestWarmStartWinsOutright(t *testing.T) {
	y := multistartSeries()
	cold, err := FitConfig(y, Config{Seasonal: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.OptParams) != 2 {
		t.Fatalf("cold OptParams = %v, want 2 log-variances", cold.OptParams)
	}
	warm, err := FitConfigOptions(y, Config{Seasonal: true}, nil, FitOptions{Start: cold.OptParams})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Attempts != 1 {
		t.Fatalf("warm Attempts = %d, want 1 (the warm start must win outright)", warm.Attempts)
	}
	if diff := math.Abs(warm.AIC - cold.AIC); diff > 1e-6*(1+math.Abs(cold.AIC)) {
		t.Fatalf("warm AIC %v too far from cold AIC %v", warm.AIC, cold.AIC)
	}
}

// TestWarmStartWrongLengthErrors checks a dimension-mismatched warm start is
// an immediate error, not a silent fallback: the caller wired the wrong
// model's optimum and should hear about it.
func TestWarmStartWrongLengthErrors(t *testing.T) {
	_, err := FitConfigOptions(multistartSeries(), Config{Seasonal: true}, nil,
		FitOptions{Start: []float64{0.5}})
	if err == nil {
		t.Fatal("1-parameter warm start accepted by a 2-parameter model")
	}
	if !strings.Contains(err.Error(), "warm start") {
		t.Fatalf("err = %v, want a warm start dimension message", err)
	}
}

// TestWarmStartBadValueFallsBackCold seeds the fit from outside the ±20
// log-variance box, where every objective evaluation is +Inf: the warm
// attempt must be discarded and the cold starts must recover the usual fit.
func TestWarmStartBadValueFallsBackCold(t *testing.T) {
	y := multistartSeries()
	cold, err := FitConfig(y, Config{Seasonal: true})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := FitConfigOptions(y, Config{Seasonal: true}, nil,
		FitOptions{Start: []float64{25, 25}})
	if err != nil {
		t.Fatalf("bad warm start was not recovered: %v", err)
	}
	if warm.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2 (warm discarded, first cold start wins)", warm.Attempts)
	}
	if warm.AIC != cold.AIC {
		t.Fatalf("fallback AIC %v != cold AIC %v", warm.AIC, cold.AIC)
	}
}

// TestZeroOptionsBitwiseEqualsCold pins the compatibility contract in the
// FitConfigOptions doc: a zero FitOptions must reproduce FitConfig bit for
// bit, also through a workspace already used by other fits.
func TestZeroOptionsBitwiseEqualsCold(t *testing.T) {
	y := multistartSeries()
	ws := kalman.NewWorkspace() // shared by both model shapes
	for _, seasonal := range []bool{false, true} {
		a, err := FitConfig(y, Config{Seasonal: seasonal})
		if err != nil {
			t.Fatal(err)
		}
		b, err := FitConfigOptions(y, Config{Seasonal: seasonal}, ws, FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if a.AIC != b.AIC || a.LogLik != b.LogLik || a.EpsVar != b.EpsVar ||
			a.XiVar != b.XiVar || a.OmegaVar != b.OmegaVar || a.Attempts != b.Attempts {
			t.Fatalf("seasonal=%v: zero-options fit differs: %+v vs %+v", seasonal, a, b)
		}
		for i := range a.OptParams {
			if a.OptParams[i] != b.OptParams[i] {
				t.Fatalf("seasonal=%v: OptParams differ: %v vs %v", seasonal, a.OptParams, b.OptParams)
			}
		}
	}
}
