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

// TestScratchPrefixScannerMatchesFresh drives one Scratch's scanner through
// series of different lengths, bounds and seasonality, and checks every
// score against a fresh scanner's bit for bit: nothing a re-armed scanner
// keeps from the previous series may reach a score. A re-arm must also drop
// the previous series' Stats and preparation, and a rejected series must
// leave the scratch usable.
func TestScratchPrefixScannerMatchesFresh(t *testing.T) {
	gappy := prefixTestSeries(40, 20, 5)
	gappy[3], gappy[31] = math.NaN(), math.NaN()
	steps := []struct {
		name     string
		y        []float64
		seasonal bool
		maxCP    int
		params   []float64
	}{
		{"nonseasonal40", prefixTestSeries(40, 25, 1), false, 37, []float64{math.Log(0.2)}},
		{"nonseasonal24 shorter bound", prefixTestSeries(24, 10, 2), false, 11, []float64{-2}},
		{"seasonal48", prefixTestSeries(48, 30, 3), true, 45, []float64{math.Log(0.2), math.Log(0.1)}},
		{"seasonal36", prefixTestSeries(36, 12, 4), true, 33, []float64{-6, -8}},
		{"gappy", gappy, false, 37, []float64{-1}},
		{"seasonal60 longer", prefixTestSeries(60, 40, 6), true, 57, []float64{-1, -3}},
		{"nonseasonal43", prefixTestSeries(43, 20, 7), false, 40, []float64{-3.5}},
	}
	var s Scratch
	stats := &FitStats{}
	for _, st := range steps {
		ps, err := s.PrefixScanner(st.y, st.seasonal, st.maxCP)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if ps.Stats != nil {
			t.Fatalf("%s: re-armed scanner kept the previous Stats", st.name)
		}
		if _, err := ps.Score(0); err == nil {
			t.Fatalf("%s: re-armed scanner scored before Prepare", st.name)
		}
		ps.Stats = stats
		fresh, err := NewPrefixScanner(st.y, st.seasonal, st.maxCP)
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.Prepare(st.params); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if err := fresh.Prepare(st.params); err != nil {
			t.Fatalf("%s: fresh: %v", st.name, err)
		}
		for cp := 0; cp <= st.maxCP; cp++ {
			got, err := ps.Score(cp)
			if err != nil {
				t.Fatalf("%s: Score(%d): %v", st.name, cp, err)
			}
			want, err := fresh.Score(cp)
			if err != nil {
				t.Fatalf("%s: fresh Score(%d): %v", st.name, cp, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: cp=%d: re-armed %v != fresh %v", st.name, cp, got, want)
			}
		}
		if _, err := s.PrefixScanner(st.y[:1], false, 0); err == nil {
			t.Fatalf("%s: a one-point series was armed", st.name)
		}
	}
}
