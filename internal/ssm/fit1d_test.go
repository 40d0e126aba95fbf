package ssm

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"mictrend/internal/faultpoint"
	"mictrend/internal/kalman"
	"mictrend/internal/optimize"
	"mictrend/internal/stat"
)

// nelderMeadFit is the oracle for cold one-parameter fits: the search every
// cold fit ran before coldSearch1D — full-tolerance Nelder-Mead from each
// cold start in turn, keeping the first converged finite start. It returns
// the winning point, its negative profile log-likelihood, the number of
// starts tried and the objective evaluations paid.
func nelderMeadFit(t *testing.T, y []float64, cfg Config) (x, nll float64, attempts, evals int) {
	t.Helper()
	best, attempts, evals, _ := nelderMeadSearch(t, y, cfg)
	return best.X[0], best.F, attempts, evals
}

// nelderMeadSearch runs the oracle search of nelderMeadFit for a model with
// any number of parameters, with no likelihood memo: every objective
// evaluation runs the filter. It also returns how many distinct parameter
// vectors (by bits) the search evaluated.
func nelderMeadSearch(t *testing.T, y []float64, cfg Config) (best optimize.Result, attempts, evals, distinct int) {
	t.Helper()
	cfg = cfg.withDefaults()
	scaled, _ := stat.Rescale(y)
	m, err := build(cfg, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ws := kalman.NewWorkspace()
	seen := map[[2]uint64]bool{}
	objective := func(params []float64) float64 {
		evals++
		var key [2]uint64
		for i, p := range params {
			key[i] = math.Float64bits(p)
		}
		seen[key] = true
		ll, _, err := concentratedLogLik(scaled, cfg, m, params, ws)
		if err != nil {
			return math.Inf(1)
		}
		return -ll
	}
	nq := 1
	if cfg.Seasonal {
		nq = 2
	}
	starts, err := fitStarts(nq, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	haveBest := false
	for _, s0 := range starts {
		attempts++
		res, err := optimize.NelderMead(objective, s0.x, optimize.NelderMeadOptions{MaxIter: cfg.MaxIter, Step: s0.step})
		if err != nil || math.IsInf(res.F, 1) || math.IsNaN(res.F) {
			continue
		}
		if !haveBest || res.F < best.F {
			best, haveBest = res, true
		}
		if res.Converged {
			break
		}
	}
	if !haveBest {
		t.Fatalf("oracle found no finite start for %v", y)
	}
	return best, attempts, evals, len(seen)
}

// fit1DCase is one generated non-seasonal fitting problem.
type fit1DCase struct {
	y   []float64
	cfg Config
}

// fit1DCases generates n local-level series with the relative level
// variance q_ξ drawn log-uniformly over [e^-12, e^4], half of them 43
// months long and half 8–43 months, half with a slope shift. Each is fitted
// either with its true change point, a wrong one, or none, as the change
// point scan does. Every fifth series is pure noise about a constant level,
// whose profile likelihood is maximized at the log q = -20 bound.
func fit1DCases(n int) []fit1DCase {
	rng := rand.New(rand.NewPCG(16, 1))
	cases := make([]fit1DCase, n)
	for i := range cases {
		months := 43
		if i%2 == 1 {
			months = 8 + rng.IntN(36)
		}
		logQ := -12 + 16*rng.Float64()
		if i%5 == 4 {
			logQ = math.Inf(-1)
		}
		sdLevel := math.Exp(0.5 * logQ)
		cp := NoChangePoint
		slope := 0.0
		if i%4 < 2 {
			cp = rng.IntN(months)
			slope = 0.5 * rng.NormFloat64()
		}
		y := make([]float64, months)
		level := 100 * rng.Float64()
		for t := range y {
			level += sdLevel * rng.NormFloat64()
			y[t] = level + slope*InterventionRegressor(cp, t) + rng.NormFloat64()
		}
		fitCP := cp
		switch rng.IntN(3) {
		case 0:
			fitCP = NoChangePoint
		case 1:
			fitCP = rng.IntN(months)
		}
		cases[i] = fit1DCase{y: y, cfg: Config{ChangePoint: fitCP}}
	}
	return cases
}

// TestColdFit1DMatchesNelderMead: on generated series, every cold
// one-parameter fit reaches a negative log-likelihood no worse than the
// full Nelder-Mead oracle's, to within 1e-6.
func TestColdFit1DMatchesNelderMead(t *testing.T) {
	const tol = 1e-6
	cases := fit1DCases(1200)
	newEvals := make([]int, 0, len(cases))
	oldEvals := make([]int, 0, len(cases))
	var worst float64
	atBound := 0
	for i, c := range cases {
		var stats FitStats
		fit, err := FitConfigOptions(c.y, c.cfg, nil, FitOptions{Stats: &stats})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		x, nll, _, evals := nelderMeadFit(t, c.y, c.cfg)
		if d := -fit.LogLik - nll; d > tol {
			t.Errorf("case %d (len %d, cp %d): NLL %.12g at log q %.6g, oracle %.12g at %.6g (+%.3g)",
				i, len(c.y), c.cfg.ChangePoint, -fit.LogLik, fit.OptParams[0], nll, x, d)
		} else if d > worst {
			worst = d
		}
		if x < -19 {
			atBound++
		}
		// The final concentrated-likelihood pass is at a point the search
		// evaluated, so the fit's memo answers it without a filter pass.
		newEvals = append(newEvals, int(stats.LikEvals.Load()))
		oldEvals = append(oldEvals, evals)
	}
	if atBound == 0 {
		t.Error("no case has its optimum at the log q = -20 bound")
	}
	pct := func(v []int, p int) int {
		slices.Sort(v)
		return v[len(v)*p/100]
	}
	t.Logf("%d fits (%d at the -20 bound): evaluations median %d → %d, p90 %d → %d; worst NLL excess %.3g",
		len(cases), atBound, pct(oldEvals, 50), pct(newEvals, 50), pct(oldEvals, 90), pct(newEvals, 90), worst)
}

// TestColdFit1DBracketFailureFallsBack forces the bracket check to fail on
// every start: each start then reruns full-tolerance Nelder-Mead, so the
// fit is bit-identical to the oracle's.
func TestColdFit1DBracketFailureFallsBack(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Enable("ssm/fit-bracket", faultpoint.Spec{})
	for i, c := range fit1DCases(60) {
		fit, err := FitConfig(c.y, c.cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		x, nll, attempts, _ := nelderMeadFit(t, c.y, c.cfg)
		if math.Float64bits(fit.OptParams[0]) != math.Float64bits(x) ||
			math.Float64bits(-fit.LogLik) != math.Float64bits(nll) || fit.Attempts != attempts {
			t.Fatalf("case %d: fit (log q %v, NLL %v, %d starts) differs from Nelder-Mead (%v, %v, %d)",
				i, fit.OptParams[0], -fit.LogLik, fit.Attempts, x, nll, attempts)
		}
	}
}

// TestFitMemoMatchesUnmemoized: a cold seasonal fit runs Nelder-Mead alone,
// so with the likelihood memo it must land on the memo-free oracle's point
// and likelihood bit for bit. Its LikEvals counts the filter passes run:
// at least one per distinct point the search evaluated, and no more than
// the oracle's evaluations, since the final pass is at the search's best
// point, which the search evaluated.
func TestFitMemoMatchesUnmemoized(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 3))
	for i := 0; i < 12; i++ {
		months := 30 + rng.IntN(14)
		cfg := Config{Seasonal: true, ChangePoint: NoChangePoint}
		if i%2 == 1 {
			cfg.ChangePoint = rng.IntN(months)
		}
		y := make([]float64, months)
		level := 50 * rng.Float64()
		for t := range y {
			level += 0.3 * rng.NormFloat64()
			y[t] = level + 3*math.Sin(2*math.Pi*float64(t)/12) + rng.NormFloat64()
		}
		var stats FitStats
		fit, err := FitConfigOptions(y, cfg, nil, FitOptions{Stats: &stats})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		best, attempts, evals, distinct := nelderMeadSearch(t, y, cfg)
		for j, x := range best.X {
			if math.Float64bits(fit.OptParams[j]) != math.Float64bits(x) {
				t.Fatalf("case %d: parameter %d is %v, oracle %v", i, j, fit.OptParams[j], x)
			}
		}
		if math.Float64bits(-fit.LogLik) != math.Float64bits(best.F) || fit.Attempts != attempts {
			t.Fatalf("case %d: NLL %v in %d starts, oracle %v in %d", i, -fit.LogLik, fit.Attempts, best.F, attempts)
		}
		runs := int(stats.LikEvals.Load())
		if runs < distinct || runs > evals {
			t.Fatalf("case %d: %d filter passes for %d evaluations (+1 final) of %d distinct points", i, runs, evals, distinct)
		}
	}
}
