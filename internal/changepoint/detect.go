// Package changepoint implements the paper's AIC-driven change point search
// (§V-B): Algorithm 1, the exact exhaustive scan over every candidate month,
// and Algorithm 2, the approximate binary search that exploits the
// valley-shaped AIC curve around the true break (paper Fig. 5). Both finish
// by comparing the best intervention model against the intervention-free
// model, so a change point is only reported when it improves AIC — which is
// why the approximation can produce false negatives but never false
// positives relative to its own candidate set.
package changepoint

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"mictrend/internal/faultpoint"
	"mictrend/internal/ssm"
)

// scanFault is the fault-injection site every candidate fit passes through,
// in the serial and the prefix scans alike; its detail is the candidate
// month being fitted.
const scanFault = "changepoint/candidate"

// AICFunc scores the model with a change point at cp (ssm.NoChangePoint for
// the intervention-free model) against a fixed series.
type AICFunc func(cp int) (float64, error)

// Result is the outcome of a change point search.
type Result struct {
	// ChangePoint is the detected 0-based month, or ssm.NoChangePoint.
	ChangePoint int
	// AIC is the score of the selected model.
	AIC float64
	// NoChangeAIC is the score of the intervention-free model.
	NoChangeAIC float64
	// Fits counts distinct model fits performed, the cost measure behind
	// the paper's Table V. In the memoized serial searches it is the cache
	// miss count; in the prefix scan it counts the anchor, probe, contender
	// and cold refinement fits. Either way the count depends only on the
	// series, its length, and the search method — never on worker
	// scheduling — so it is deterministic under concurrent evaluation.
	Fits int
}

// Detected reports whether a change point was found.
func (r Result) Detected() bool { return r.ChangePoint != ssm.NoChangePoint }

// evaluator memoizes AIC evaluations so shared endpoints in the binary
// search cost one fit. It backs the serial searches and is not safe for
// concurrent use.
type evaluator struct {
	f     AICFunc
	cache map[int]float64
	fits  int
	// prov, when non-nil, receives one ladder rung (tagged path) per cache
	// miss — exactly the distinct fits, in evaluation order.
	prov *Provenance
	path string
}

func newEvaluator(f AICFunc) *evaluator {
	return &evaluator{f: f, cache: make(map[int]float64)}
}

func (e *evaluator) aic(cp int) (float64, error) {
	if v, ok := e.cache[cp]; ok {
		return v, nil
	}
	if err := faultpoint.Inject(scanFault, strconv.Itoa(cp)); err != nil {
		return 0, err
	}
	v, err := e.f(cp)
	if err != nil {
		return 0, err
	}
	e.cache[cp] = v
	e.fits++
	e.prov.candidate(cp, v, e.path)
	return v, nil
}

// MinActiveObservations is the number of post-change-point observations a
// candidate must leave: the intervention coefficient's diffuse
// initialization consumes its first active observation, so a change point at
// the very end of the series would trade one likelihood term for a free
// parameter and systematically over-detect tail outliers. Candidates are
// therefore restricted to cp ≤ n − MinActiveObservations.
const MinActiveObservations = 3

// maxCandidate returns the largest admissible change point for a series of
// length n, or -1 when none exists.
func maxCandidate(n int) int { return n - MinActiveObservations }

// Exact implements Algorithm 1: evaluate every admissible candidate change
// point plus the no-intervention model, returning the AIC-minimizing choice.
// Ties prefer no change point (the paper iterates ∞ last with ≤).
func Exact(n int, f AICFunc) (Result, error) {
	return exact(n, f, nil)
}

// exact is Exact with optional decision-provenance recording: prov (nil to
// disable) receives the full serial AIC ladder, cold path.
func exact(n int, f AICFunc, prov *Provenance) (Result, error) {
	if n < 2 {
		return Result{}, fmt.Errorf("changepoint: series length %d too short", n)
	}
	e := newEvaluator(f)
	e.prov, e.path = prov, PathCold
	best := ssm.NoChangePoint
	bestAIC, err := e.aic(ssm.NoChangePoint)
	if err != nil {
		return Result{}, err
	}
	noneAIC := bestAIC
	for cp := 0; cp <= maxCandidate(n); cp++ {
		aic, err := e.aic(cp)
		if err != nil {
			return Result{}, err
		}
		if aic < bestAIC {
			best, bestAIC = cp, aic
		}
	}
	res := Result{ChangePoint: best, AIC: bestAIC, NoChangeAIC: noneAIC, Fits: e.fits}
	prov.finish(SearchExact.String(), n, res)
	return res, nil
}

// Binary implements Algorithm 2: a binary search that halves the candidate
// interval toward the lower-AIC endpoint, then compares the located candidate
// against the no-intervention model. It performs O(log n) fits and, like the
// exact method, never reports a change point that does not beat the
// intervention-free model.
func Binary(n int, f AICFunc) (Result, error) {
	return binary(n, f, nil)
}

// binary is Binary with optional decision-provenance recording: prov (nil to
// disable) receives every distinct evaluation in visit order (probe path)
// plus the bisection trail in Steps.
func binary(n int, f AICFunc, prov *Provenance) (Result, error) {
	if n < 2 {
		return Result{}, fmt.Errorf("changepoint: series length %d too short", n)
	}
	e := newEvaluator(f)
	e.prov, e.path = prov, PathProbe
	hi := maxCandidate(n)
	if hi < 0 {
		aic, err := e.aic(ssm.NoChangePoint)
		if err != nil {
			return Result{}, err
		}
		res := Result{ChangePoint: ssm.NoChangePoint, AIC: aic, NoChangeAIC: aic, Fits: e.fits}
		prov.finish(SearchBinary.String(), n, res)
		return res, nil
	}
	best, err := findWithin(e, 0, hi)
	if err != nil {
		return Result{}, err
	}
	bestAIC, err := e.aic(best)
	if err != nil {
		return Result{}, err
	}
	noneAIC, err := e.aic(ssm.NoChangePoint)
	if err != nil {
		return Result{}, err
	}
	res := Result{ChangePoint: best, AIC: bestAIC, NoChangeAIC: noneAIC, Fits: e.fits}
	if noneAIC <= bestAIC {
		res.ChangePoint = ssm.NoChangePoint
		res.AIC = noneAIC
	}
	prov.finish(SearchBinary.String(), n, res)
	return res, nil
}

// findWithin is the recursive core of Algorithm 2. Each inspected interval
// is recorded in the evaluator's provenance (when enabled) with the endpoint
// AICs and the pruning decision.
func findWithin(e *evaluator, left, right int) (int, error) {
	if right-left <= 1 {
		aicL, err := e.aic(left)
		if err != nil {
			return 0, err
		}
		aicR, err := e.aic(right)
		if err != nil {
			return 0, err
		}
		if aicL <= aicR {
			e.prov.step(left, right, aicL, aicR, "leaf-left")
			return left, nil
		}
		e.prov.step(left, right, aicL, aicR, "leaf-right")
		return right, nil
	}
	middle := (left + right) / 2
	aicL, err := e.aic(left)
	if err != nil {
		return 0, err
	}
	aicR, err := e.aic(right)
	if err != nil {
		return 0, err
	}
	if aicL < aicR {
		e.prov.step(left, right, aicL, aicR, "left")
		return findWithin(e, left, middle)
	}
	e.prov.step(left, right, aicL, aicR, "right")
	return findWithin(e, middle, right)
}

// scratches recycles the fit scratches of finished searches, so a search on
// a warm pool allocates no fit scaffolding. A scratch is a few KB. A search
// whose fit panics drops its scratch instead of returning it.
var scratches = sync.Pool{New: func() any { return new(ssm.Scratch) }}

// ssmEvaluator returns an AICFunc that fits the paper's structural model
// (with or without seasonality) to y at each candidate change point, every
// fit on s. stats (nil to disable) accumulates likelihood evaluations and
// multi-start activity across the search's fits without changing any fit's
// numerics. The function is not goroutine-safe (s is mutable scratch) and
// neither are the Exact/Binary drivers that consume it; Detect gives each
// search a scratch of its own, so any number of searches over different
// series may run concurrently.
func ssmEvaluator(y []float64, seasonal bool, stats *ssm.FitStats, s *ssm.Scratch) AICFunc {
	return func(cp int) (float64, error) {
		aic, _, err := ssm.AICAtOptions(y, ssm.Config{Seasonal: seasonal, ChangePoint: cp}, s, ssm.FitOptions{Stats: stats})
		return aic, err
	}
}

// ContextAIC wraps an AICFunc with a cancellation check before every model
// fit, so a long search (the exact scan fits one model per candidate month)
// aborts within one in-flight fit of ctx being cancelled. The context error
// is returned verbatim, letting callers distinguish cancellation from fit
// failures with errors.Is.
func ContextAIC(ctx context.Context, f AICFunc) AICFunc {
	if ctx == nil {
		return f
	}
	return func(cp int) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return f(cp)
	}
}

// DetectExact runs Algorithm 1 on y with the structural model.
func DetectExact(y []float64, seasonal bool) (Result, error) {
	return Detect(context.Background(), y, DetectOptions{Method: SearchExact, Seasonal: seasonal})
}

// DetectBinary runs Algorithm 2 on y with the structural model.
func DetectBinary(y []float64, seasonal bool) (Result, error) {
	return Detect(context.Background(), y, DetectOptions{Method: SearchBinary, Seasonal: seasonal})
}
