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
	cfg = cfg.withDefaults()
	scaled, _ := stat.Rescale(y)
	m, err := build(cfg, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ws := kalman.NewWorkspace()
	objective := func(params []float64) float64 {
		evals++
		ll, _, err := concentratedLogLik(scaled, cfg, m, params, ws)
		if err != nil {
			return math.Inf(1)
		}
		return -ll
	}
	starts, err := fitStarts(1, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var best optimize.Result
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
	return best.X[0], best.F, attempts, evals
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
		// The final concentrated-likelihood pass is not part of the search.
		newEvals = append(newEvals, int(stats.LikEvals.Load())-1)
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
