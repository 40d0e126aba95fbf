package ssm

import (
	"math"
	"math/rand"
	"testing"

	"mictrend/internal/kalman"
	"mictrend/internal/stat"
)

// prefixTestSeries builds a deterministic noisy slope-shift series.
func prefixTestSeries(n, cp int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	y := make([]float64, n)
	level := 50.0
	for t := 0; t < n; t++ {
		level += rng.NormFloat64()
		y[t] = level + 5*rng.NormFloat64()
		if cp >= 0 && t >= cp {
			y[t] += 2 * float64(t-cp+1)
		}
	}
	return y
}

// fullCandidateAIC evaluates the candidate model's concentrated AIC over the
// whole series at fixed params — the O(T) evaluation Score must reproduce.
func fullCandidateAIC(t *testing.T, y []float64, seasonal bool, cp int, params []float64) float64 {
	t.Helper()
	scaled, _ := stat.Rescale(y)
	cfg := Config{Seasonal: seasonal, ChangePoint: cp}.withDefaults()
	m, err := build(cfg, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ll, _, err := concentratedLogLik(scaled, cfg, m, params, kalman.NewWorkspace())
	if err != nil {
		t.Fatalf("cp=%d: %v", cp, err)
	}
	return -2*ll + 2*float64(cfg.NumParams())
}

// TestPrefixScoreMatchesFullEvaluation is the prefix-sharing invariant gate:
// for every candidate change point, resuming from the checkpointed
// no-intervention prefix must reproduce the full-series candidate evaluation
// bit for bit — same filter arithmetic, same summation order, same AIC bits.
func TestPrefixScoreMatchesFullEvaluation(t *testing.T) {
	cases := []struct {
		name     string
		n, cp    int
		seasonal bool
		missing  []int
		params   []float64
	}{
		{name: "nonseasonal_break", n: 40, cp: 25, params: []float64{math.Log(0.2)}},
		{name: "nonseasonal_flat", n: 30, cp: -1, params: []float64{-3.5}},
		{name: "seasonal_break", n: 48, cp: 30, params: []float64{math.Log(0.2), math.Log(0.1)}},
		{name: "seasonal_small_q", n: 36, cp: 12, params: []float64{-6, -8}},
		{name: "missing_obs", n: 40, cp: 20, missing: []int{5, 17, 28}, params: []float64{-1.0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			y := prefixTestSeries(tc.n, tc.cp, 7)
			for _, idx := range tc.missing {
				y[idx] = math.NaN()
			}
			maxCP := tc.n - 3
			tc.seasonal = len(tc.params) == 2
			ps, err := NewPrefixScanner(y, tc.seasonal, maxCP)
			if err != nil {
				t.Fatal(err)
			}
			if err := ps.Prepare(tc.params); err != nil {
				t.Fatal(err)
			}
			for cp := 0; cp <= maxCP; cp++ {
				got, err := ps.Score(cp)
				if err != nil {
					t.Fatalf("Score(%d): %v", cp, err)
				}
				want := fullCandidateAIC(t, y, tc.seasonal, cp, tc.params)
				if got != want {
					t.Errorf("cp=%d: prefix score %v (bits %x) != full evaluation %v (bits %x)",
						cp, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		})
	}
}

// TestPrefixScannerReprepare checks a scanner can re-anchor at new parameters
// and that stale scores are rejected before Prepare.
func TestPrefixScannerReprepare(t *testing.T) {
	y := prefixTestSeries(36, 20, 3)
	ps, err := NewPrefixScanner(y, false, 33)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Score(5); err == nil {
		t.Fatal("Score before Prepare should fail")
	}
	for _, p := range []float64{math.Log(0.2), -2.5} {
		if err := ps.Prepare([]float64{p}); err != nil {
			t.Fatal(err)
		}
		got, err := ps.Score(20)
		if err != nil {
			t.Fatal(err)
		}
		if want := fullCandidateAIC(t, y, false, 20, []float64{p}); got != want {
			t.Errorf("params %v: %v != %v", p, got, want)
		}
	}
	if err := ps.Prepare([]float64{math.NaN()}); err == nil {
		t.Fatal("NaN params accepted")
	}
	if _, err := ps.Score(5); err == nil {
		t.Fatal("Score after failed Prepare should fail")
	}
}

// TestPrefixScannerCountsResumes checks the PrefixResumes accounting.
func TestPrefixScannerCountsResumes(t *testing.T) {
	y := prefixTestSeries(30, 15, 9)
	ps, err := NewPrefixScanner(y, false, 27)
	if err != nil {
		t.Fatal(err)
	}
	stats := &FitStats{}
	ps.Stats = stats
	if err := ps.Prepare([]float64{-1}); err != nil {
		t.Fatal(err)
	}
	for cp := 0; cp <= 27; cp++ {
		if _, err := ps.Score(cp); err != nil {
			t.Fatal(err)
		}
	}
	if got := stats.PrefixResumes.Load(); got != 28 {
		t.Fatalf("PrefixResumes = %d, want 28", got)
	}
}
