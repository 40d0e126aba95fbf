package ssm

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"

	"mictrend/internal/faultpoint"
	"mictrend/internal/kalman"
	"mictrend/internal/obs"
	"mictrend/internal/optimize"
	"mictrend/internal/stat"
)

// FitStats accumulates optimizer-level accounting across fits for the
// observability layer: how many Kalman likelihood evaluations a search paid,
// how often the multi-start recovery had to restart, and how many fits
// failed outright. Fields are atomic, so one FitStats may be shared by every
// worker of a parallel scan; the totals are sums of exact integers and
// therefore deterministic for any worker split. A nil *FitStats disables
// collection at the cost of one pointer check per fit — the hot per-candidate
// path stays allocation-free either way.
type FitStats struct {
	// Fits counts completed (successful) maximum-likelihood fits.
	Fits atomic.Int64
	// LikEvals counts Kalman likelihood-filter evaluations actually run:
	// every objective evaluation of every optimization start, plus each
	// fit's final concentrated-likelihood pass, less those the fit's memo
	// answered because the same fit had already evaluated the same
	// parameter bits.
	LikEvals atomic.Int64
	// Starts counts optimization starts tried (warm and cold).
	Starts atomic.Int64
	// Restarts counts starts beyond each fit's first — the multi-start
	// recovery rate.
	Restarts atomic.Int64
	// FitFailures counts fits where every start failed (OptimizationError).
	FitFailures atomic.Int64
	// SteadyHits is kept for API compatibility; no fit counts into it.
	//
	// Deprecated: always 0. The steady-state Kalman fast path it counted is
	// gone; every likelihood evaluation is exact.
	SteadyHits atomic.Int64
	// PrefixResumes counts candidate scores resumed from a prefix checkpoint
	// by the prefix-checkpointed change point scan.
	PrefixResumes atomic.Int64
}

// Merge folds src's counts into s (either may be nil; both no-op).
func (s *FitStats) Merge(src *FitStats) {
	if s == nil || src == nil {
		return
	}
	s.Fits.Add(src.Fits.Load())
	s.LikEvals.Add(src.LikEvals.Load())
	s.Starts.Add(src.Starts.Load())
	s.Restarts.Add(src.Restarts.Load())
	s.FitFailures.Add(src.FitFailures.Load())
	s.PrefixResumes.Add(src.PrefixResumes.Load())
}

// ErrSeriesTooShort is returned when a series is shorter than the model can
// identify.
var ErrSeriesTooShort = errors.New("ssm: series too short for the requested model")

// OptimizationError reports that the likelihood optimization failed to find a
// finite value from every starting point of the multi-start search. Attempts
// is the number of starts tried before the series was declared failed.
type OptimizationError struct {
	Attempts int
}

// Error implements error.
func (e *OptimizationError) Error() string {
	return fmt.Sprintf("ssm: likelihood optimization failed to find a finite value (%d starts)", e.Attempts)
}

// FitOptions tunes a single maximum-likelihood fit beyond the model choice.
// The zero value reproduces the historical cold fit bit-for-bit.
type FitOptions struct {
	// Start seeds the Nelder-Mead simplex with a caller-supplied starting
	// point in the optimizer's coordinates: the relative disturbance
	// log-variances (log q_ξ and, with seasonality, log q_ω), matching
	// Fit.OptParams. A warm Start is tried before the deterministic cold
	// starts; because the multi-start loop keeps the first converged finite
	// start, a good warm start wins outright and a bad one (wrong length
	// aside, which is an error) merely falls through to the cold starts. The
	// change point scan threads each candidate's OptParams into its
	// neighbor's Start, exploiting the AIC valley's near-identical adjacent
	// optimization problems.
	//
	// A warm fit optimizes at scan precision, not estimation precision: the
	// simplex starts as a small absolute neighborhood of Start
	// (DefaultWarmStep per axis) and stops at tolerances calibrated for AIC
	// model selection (warmTolF/warmTolX, ~1e-4 in AIC) rather than the cold
	// fits' near-machine-precision ones. Nelder-Mead's cost is dominated by
	// shrinking the simplex down to tolerance, so this — not the starting
	// point — is where warm fits earn their speedup; candidate AIC gaps are
	// orders of magnitude above the slack.
	//
	// Every start of a warm fit, cold ones included, runs Nelder-Mead alone.
	// A cold (nil Start) non-seasonal fit instead runs each start as
	// Nelder-Mead to a coarse tolerance followed by Brent's method, which
	// reaches estimation precision in about half the evaluations (see
	// coldSearch1D); cold seasonal fits run Nelder-Mead to full tolerance.
	Start []float64
	// StartStep is the absolute initial simplex edge used for the warm Start
	// only (0 = DefaultWarmStep). Cold starts always use the historical
	// relative step, so their trajectories are unchanged by this option.
	StartStep float64
	// Stats, when non-nil, accumulates optimizer accounting (likelihood
	// evaluations, starts, restarts, failures) for this fit. It never
	// changes the fit's numerics.
	Stats *FitStats
	// Trace, when non-nil, receives one "ssm/fit" span per FitConfigOptions
	// or AICAtOptions call, carrying the fitted configuration and start
	// count (or the failure) in its detail. A nil Trace is free: the
	// disabled path is one pointer check — no clock reads, no allocations —
	// preserving the kernel-level zero-alloc contract. The observer must be
	// goroutine-safe when fits run concurrently.
	Trace obs.SpanObserver
}

// DefaultWarmStep is the absolute initial simplex edge for warm starts:
// small enough that a start already sitting at a neighbor's optimum is
// near-converged from the first iteration, large enough to escape a
// slightly stale neighbor optimum.
const DefaultWarmStep = 0.1

// Warm-fit convergence tolerances: the scan compares candidate AICs whose
// gaps are O(0.1) and up, so stopping the simplex at ~1e-4 AIC precision
// buys roughly half the cold fit's evaluations without ever confusing the
// selection. Cold fits keep the optimizer's defaults (1e-10/1e-8).
const (
	warmTolF = 1e-6
	warmTolX = 1e-3
)

// coldStep is the historical relative initial simplex edge of the cold
// starts.
const coldStep = 1.0

// Fit is a maximum-likelihood-fitted structural model.
type Fit struct {
	Config Config
	Model  *kalman.Model
	Filter *kalman.FilterResult

	// LogLik is the maximized log-likelihood of the scaled series.
	LogLik float64
	// AIC = −2·LogLik + 2·NumParams.
	AIC float64
	// NumParams is k in the AIC formula.
	NumParams int
	// EpsVar, XiVar, OmegaVar are the estimated disturbance variances on the
	// scaled series.
	EpsVar, XiVar, OmegaVar float64
	// Lambda is the first intervention's coefficient (0 without an
	// intervention), on the scaled series.
	Lambda float64
	// Lambdas holds every intervention coefficient in Config.Interventions()
	// order, on the scaled series.
	Lambdas []float64

	// Attempts is the number of optimization starts tried before this fit
	// succeeded: 1 when the default start converged, more when the
	// multi-start recovery had to perturb the initial parameters.
	Attempts int

	// OptParams is the optimizer's solution: the relative disturbance
	// log-variances (log q_ξ and, with seasonality, log q_ω) that maximized
	// the profile likelihood. It is the natural warm FitOptions.Start for a
	// neighboring fit.
	OptParams []float64

	// Scaled is the series the model was fitted to (y divided by Scale).
	Scaled []float64
	// Scale is the divisor applied to the input series for numerical
	// conditioning; multiply model-scale quantities by Scale to return to
	// data units.
	Scale float64
}

// FitConfig fits the structural model selected by cfg to y by maximum
// likelihood. The observation variance is concentrated out of the
// likelihood (the standard Commandeur–Koopman device), so the optimizer
// works over one or two relative variances only: q_ξ = σξ²/σε² and, with
// seasonality, q_ω = σω²/σε². The series is internally rescaled to unit
// magnitude; reported LogLik/AIC refer to the scaled series, which is
// consistent across model variants of the same series and therefore valid
// for the paper's AIC comparisons.
func FitConfig(y []float64, cfg Config) (*Fit, error) {
	return FitConfigOptions(y, cfg, nil, FitOptions{})
}

// FitConfigOptions is FitConfig with an explicit Kalman workspace and
// per-fit options; a zero opts reproduces FitConfig exactly (same starts,
// same order, same search, bitwise-identical estimates). The structural
// model is assembled once per call; every objective evaluation of the
// search — Nelder-Mead's, and for a one-parameter fit the bracket probes'
// and Brent's — only updates the disturbance variances in place and runs
// the allocation-free likelihood filter through ws, so a caller performing
// many fits can reuse one workspace across them; an evaluation at parameter
// bits the fit has already evaluated is answered from a per-fit memo
// (likMemo) without a filter pass. The full Filter pass
// (which materializes the smoother inputs) runs once, for the winning
// parameters; the change point search, which needs only each candidate's
// AIC, skips it (AICAtOptions). ws may be nil; a workspace is not safe for
// concurrent use.
func FitConfigOptions(y []float64, cfg Config, ws *kalman.Workspace, opts FitOptions) (*Fit, error) {
	return fitTraced(y, cfg, ws, opts, true)
}

// fitTraced runs fitConfig, reporting it to opts.Trace as one "ssm/fit"
// span when a tracer is set.
func fitTraced(y []float64, cfg Config, ws *kalman.Workspace, opts FitOptions, full bool) (*Fit, error) {
	if opts.Trace == nil {
		return fitConfig(y, cfg, ws, opts, full)
	}
	began := time.Now()
	fit, err := fitConfig(y, cfg, ws, opts, full)
	obs.Emit(opts.Trace, obs.SpanEvent{Cat: "ssm", Name: "ssm/fit", TID: obs.LaneSSM, Start: began, Month: -1, Detail: fitDetail(cfg, fit)}, err)
	return fit, err
}

// fitDetail renders the span detail for a fit of cfg: the intervention
// months, the model flavor, and (for completed fits) the start count.
func fitDetail(cfg Config, fit *Fit) string {
	d := "cp=none"
	if ivs := cfg.Interventions(); len(ivs) > 0 {
		d = "cp=" + strconv.Itoa(ivs[0].Month)
		for _, iv := range ivs[1:] {
			d += "," + strconv.Itoa(iv.Month)
		}
	}
	if cfg.Seasonal {
		d += " seasonal"
	}
	if fit != nil {
		d += " attempts=" + strconv.Itoa(fit.Attempts)
	}
	return d
}

// fitConfig is the uninstrumented fit core behind FitConfigOptions and
// AICAtOptions. A full fit ends with a Filter pass over the σ²-scaled model,
// which yields the smoother inputs and the intervention coefficients. An
// AIC-only fit (full false) stops once the AIC is known: it validates the
// scaled model with the allocation-free LogLikFilter instead, the kernel
// Filter records its history from, so it fails exactly when Filter would;
// its Fit has no Filter and no Lambdas.
func fitConfig(y []float64, cfg Config, ws *kalman.Workspace, opts FitOptions, full bool) (*Fit, error) {
	cfg = cfg.withDefaults()
	minLen := cfg.stateDim() + cfg.numVariances() + 2
	if len(y) < minLen {
		return nil, fmt.Errorf("%w: len %d < %d", ErrSeriesTooShort, len(y), minLen)
	}
	for _, iv := range cfg.Interventions() {
		if iv.Month < 0 || iv.Month >= len(y) {
			return nil, fmt.Errorf("ssm: change point %d outside series of length %d", iv.Month, len(y))
		}
	}
	if ws == nil {
		ws = kalman.NewWorkspace()
	}

	scaled, scale := stat.Rescale(y)

	// The search model: built once with unit variances; concentratedLogLik
	// rewrites H and the Q diagonal before each evaluation.
	searchModel, err := build(cfg, 1, 1, 1)
	if err != nil {
		return nil, err
	}

	// Optimize relative log-variances with σε² concentrated out.
	nq := 1
	if cfg.Seasonal {
		nq = 2
	}
	var memo likMemo
	var attempts int
	if s := opts.Stats; s != nil {
		defer func() {
			s.LikEvals.Add(int64(memo.runs))
			s.Starts.Add(int64(attempts))
			if attempts > 1 {
				s.Restarts.Add(int64(attempts - 1))
			}
		}()
	}
	objective := func(params []float64) float64 {
		ll, _, err := memo.logLik(scaled, cfg, searchModel, params, ws)
		if err != nil {
			return math.Inf(1)
		}
		return -ll
	}

	starts, err := fitStarts(nq, opts)
	if err != nil {
		return nil, err
	}

	// Multi-start recovery: the warm start (when provided) and then the
	// default start are tried in order and the first that converges to a
	// finite value wins outright — the common case costs exactly one
	// optimization, identical to a single-start fit. A start that errors or
	// lands on +Inf is discarded; a finite but non-converged start is kept
	// as a candidate while the perturbed starts get a chance to do better.
	// Only when every start fails is the series declared failed.
	//
	// A cold one-parameter fit searches each start with Nelder-Mead to a
	// coarse tolerance and Brent after it (coldSearch1D); every other fit
	// runs Nelder-Mead alone.
	cold1D := nq == 1 && opts.Start == nil
	var best optimize.Result
	haveBest := false
	for _, s0 := range starts {
		attempts++
		detail := strconv.Itoa(attempts)
		if err := faultpoint.Inject("ssm/fit-attempt", detail); err != nil {
			continue
		}
		nm := optimize.NelderMeadOptions{MaxIter: cfg.MaxIter, Step: s0.step}
		if s0.warm {
			nm.StepAbsolute = true
			nm.TolF, nm.TolX = warmTolF, warmTolX
		}
		var res optimize.Result
		var err error
		if cold1D {
			res, err = coldSearch1D(objective, s0.x, nm, detail)
		} else {
			res, err = optimize.NelderMead(objective, s0.x, nm)
		}
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
		if s := opts.Stats; s != nil {
			s.FitFailures.Add(1)
		}
		return nil, &OptimizationError{Attempts: attempts}
	}
	logLik, sigma2, err := memo.logLik(scaled, cfg, searchModel, best.X, ws)
	if err != nil {
		return nil, err
	}
	res := best

	epsVar := sigma2
	xiVar := sigma2 * math.Exp(res.X[0])
	omegaVar := 0.0
	if cfg.Seasonal {
		omegaVar = sigma2 * math.Exp(res.X[1])
	}
	m, err := build(cfg, epsVar, xiVar, omegaVar)
	if err != nil {
		return nil, err
	}
	var fr *kalman.FilterResult
	if full {
		fr, err = m.Filter(scaled)
	} else {
		_, err = m.LogLikFilter(scaled, ws)
	}
	if err != nil {
		return nil, err
	}
	fit := &Fit{
		Config:    cfg,
		Model:     m,
		Filter:    fr,
		LogLik:    logLik,
		NumParams: cfg.NumParams(),
		EpsVar:    epsVar,
		XiVar:     xiVar,
		OmegaVar:  omegaVar,
		Scaled:    scaled,
		Scale:     scale,
		Attempts:  attempts,
		OptParams: append([]float64(nil), best.X...),
	}
	fit.AIC = -2*fit.LogLik + 2*float64(fit.NumParams)
	if ivs := cfg.Interventions(); full && len(ivs) > 0 {
		// λ coefficients are the trailing elements of the final predicted
		// state, in Interventions() order.
		final := fr.A[len(scaled)]
		base := m.Dim() - len(ivs)
		fit.Lambdas = append([]float64(nil), final[base:]...)
		fit.Lambda = fit.Lambdas[0]
	}
	if s := opts.Stats; s != nil {
		s.Fits.Add(1)
	}
	return fit, nil
}

// Tolerances of the cold one-parameter search (coldSearch1D). Nelder-Mead
// stops once its two vertices lie within basinTolX and agree to basinTolF,
// which is enough to settle which basin of the profile likelihood it is in;
// Brent then polishes the minimum to polishTolX relative accuracy.
const (
	basinTolF  = 1e-4
	basinTolX  = 0.1
	polishTolX = 1e-8
)

// coldSearch1D runs one cold start of a one-parameter fit. The profile
// likelihood in log q_ξ is multimodal (DESIGN.md, "One-parameter fits"), so
// Nelder-Mead from the start, stopped at coarse tolerances, chooses the
// basin. Two probes at ±2·basinTolX around its point then check that the
// basin is bracketed — a probe beyond the ±maxLogVar bound is clamped to
// the bound, which closes that side — and Brent polishes the minimum inside
// the bracket. When the check fails (or the coarse search does not
// converge) the start reruns full-tolerance Nelder-Mead with nm, exactly as
// every other fit does, so its result is unchanged. detail labels the
// "ssm/fit-bracket" fault point, which forces the check to fail.
func coldSearch1D(objective func([]float64) float64, x0 []float64, nm optimize.NelderMeadOptions, detail string) (optimize.Result, error) {
	coarse := nm
	coarse.TolF, coarse.TolX = basinTolF, basinTolX
	res, err := optimize.NelderMead(objective, x0, coarse)
	if err != nil || !res.Converged || math.IsInf(res.F, 1) {
		return optimize.NelderMead(objective, x0, nm)
	}
	x, fx := res.X[0], res.F
	// res.X is the fit's own copy; it doubles as the scratch parameter
	// vector, so the probes and Brent's evaluations allocate nothing.
	params := res.X
	f := func(v float64) float64 {
		params[0] = v
		return objective(params)
	}
	lo, hi := x-2*basinTolX, x+2*basinTolX
	loClosed, hiClosed := lo < -maxLogVar, hi > maxLogVar
	lo, hi = math.Max(lo, -maxLogVar), math.Min(hi, maxLogVar)
	if faultpoint.Inject("ssm/fit-bracket", detail) != nil ||
		!(loClosed || f(lo) > fx) || !(hiClosed || f(hi) > fx) {
		return optimize.NelderMead(objective, x0, nm)
	}
	return optimize.Brent(f, lo, hi, x, fx, polishTolX)
}

// simplexStart pairs an initial point with its simplex geometry: warm starts
// search a small absolute neighborhood at scan tolerances, cold starts the
// historical wide relative one at estimation tolerances.
type simplexStart struct {
	x    []float64
	step float64
	warm bool
}

// fitStarts builds the ordered start list: the caller's warm start (when
// provided) ahead of the deterministic cold points, so the cold list — and
// with it every historical fit — is reproduced exactly when opts is zero.
func fitStarts(nq int, opts FitOptions) ([]simplexStart, error) {
	cold := startPoints(nq)
	starts := make([]simplexStart, 0, len(cold)+1)
	if opts.Start != nil {
		if len(opts.Start) != nq {
			return nil, fmt.Errorf("ssm: warm start has %d parameters, want %d", len(opts.Start), nq)
		}
		step := opts.StartStep
		if step <= 0 {
			step = DefaultWarmStep
		}
		starts = append(starts, simplexStart{x: append([]float64(nil), opts.Start...), step: step, warm: true})
	}
	for _, x := range cold {
		starts = append(starts, simplexStart{x: x, step: coldStep})
	}
	return starts, nil
}

// startPoints returns the deterministic initial log-variance points of the
// multi-start search: the historical default first (so healthy fits are
// unchanged), then perturbations spanning smoother and noisier regimes of
// (q_ξ, q_ω).
func startPoints(nq int) [][]float64 {
	bases := [...][2]float64{
		{0.2, 0.1}, // default start
		{0.02, 0.02},
		{1.5, 0.5},
		{0.005, 1.0},
	}
	out := make([][]float64, len(bases))
	for i, b := range bases {
		s := make([]float64, nq)
		s[0] = math.Log(b[0])
		if nq > 1 {
			s[1] = math.Log(b[1])
		}
		out[i] = s
	}
	return out
}

// concentratedLogLik evaluates the profile log-likelihood at relative
// log-variances params, returning the log-likelihood and the implied
// observation variance σ̂². The model m (built once by the caller) is
// updated in place — H set to the concentrated unit variance, the Q diagonal
// to the relative variances — and filtered through the allocation-free
// likelihood kernel with ws as scratch.
func concentratedLogLik(scaled []float64, cfg Config, m *kalman.Model, params []float64, ws *kalman.Workspace) (logLik, sigma2 float64, err error) {
	if err := checkParams(params); err != nil {
		return 0, 0, err
	}
	m.H = 1
	m.Q.Set(0, 0, math.Exp(params[0]))
	if cfg.Seasonal {
		m.Q.Set(1, 1, math.Exp(params[1]))
	}
	fr, err := m.LogLikFilter(scaled, ws)
	if err != nil {
		return 0, 0, err
	}
	if fr.LikCount == 0 {
		return 0, 0, errors.New("ssm: no likelihood contributions")
	}
	logLik, sigma2 = concentrateFromSums(fr.SumLogF, fr.SumV2F, fr.LikCount)
	return logLik, sigma2, nil
}

// likMemoBits sets the size of a fit's likelihood memo: 2^likMemoBits slots.
const likMemoBits = 7

// likMemo remembers one fit's concentrated-likelihood evaluations by the bits
// of their parameters. A search revisits points: one-dimensional Nelder–Mead
// steps on a dyadic lattice, Brent's minimum steps and the bracket probes
// land on earlier points, and the final pass is at the search's best point.
// The memo is direct-mapped: an evaluation replaces whatever its slot held,
// so a hit returns exactly what concentratedLogLik returned for the same
// bits, and a miss merely runs the filter again. It lives on the fit's stack,
// so it allocates nothing.
type likMemo struct {
	slots [1 << likMemoBits]likEntry
	runs  int // evaluations that missed and ran the filter
}

type likEntry struct {
	key        [2]uint64
	set        bool
	ll, sigma2 float64
	err        error
}

// logLik is concentratedLogLik through the memo; params has at most two
// elements.
func (c *likMemo) logLik(scaled []float64, cfg Config, m *kalman.Model, params []float64, ws *kalman.Workspace) (logLik, sigma2 float64, err error) {
	var key [2]uint64
	for i, p := range params {
		key[i] = math.Float64bits(p)
	}
	h := (key[0] ^ bits.RotateLeft64(key[1], 32)) * 0x9e3779b97f4a7c15
	e := &c.slots[h>>(64-likMemoBits)]
	if e.set && e.key == key {
		return e.ll, e.sigma2, e.err
	}
	c.runs++
	logLik, sigma2, err = concentratedLogLik(scaled, cfg, m, params, ws)
	*e = likEntry{key: key, set: true, ll: logLik, sigma2: sigma2, err: err}
	return logLik, sigma2, err
}

// maxLogVar bounds the optimizer coordinates: relative log-variances beyond
// e^±20 add nothing but conditioning trouble on unit-scaled series.
const maxLogVar = 20

// checkParams validates optimizer coordinates against ±maxLogVar.
func checkParams(params []float64) error {
	for _, p := range params {
		if p < -maxLogVar || p > maxLogVar || math.IsNaN(p) {
			return errors.New("ssm: parameter out of range")
		}
	}
	return nil
}

// concentrateFromSums turns the filter's accumulated log-variance and scaled
// squared-innovation sums into the profile log-likelihood and the implied
// observation variance. It is the single implementation of the concentration
// formula, shared by the full-series evaluation and the prefix-checkpointed
// candidate scorer so the two agree bitwise on identical sums.
func concentrateFromSums(sumLogF, sumV2F float64, likCount int) (logLik, sigma2 float64) {
	n := float64(likCount)
	sigma2 = sumV2F / n
	// Floor the concentrated variance: a deterministic (perfectly fitted)
	// series would otherwise send the profile likelihood to +∞ and the
	// rebuilt model's prediction variances so far below the diffuse prior
	// (1e7) that covariance updates cancel to negative values in float64.
	// 1e-6 on a unit-scaled series is far below any practical noise level.
	const sigmaFloor = 1e-6
	if !(sigma2 > sigmaFloor) {
		sigma2 = sigmaFloor
	}
	logLik = -0.5*n*math.Log(2*math.Pi) - 0.5*sumLogF - 0.5*n*(math.Log(sigma2)+1)
	return logLik, sigma2
}

// AICAtOptions is the change point search primitive: it fits the full model
// (level + optional seasonal + intervention at cp, or no intervention for
// cp == NoChangePoint) and returns its AIC and the fitted optimum's
// parameters, the warm start for the next candidate. opts threads warm
// starts and FitStats accounting; ws may be nil, and a change point search
// reuses one workspace across every candidate fit. It returns the AIC and
// OptParams that
// FitConfigOptions would, bit for bit, and the same error, but skips the
// fitted model's Filter pass and its per-step allocations: the search needs
// neither the smoother inputs nor the intervention coefficients.
func AICAtOptions(y []float64, seasonal bool, cp int, ws *kalman.Workspace, opts FitOptions) (aic float64, opt []float64, err error) {
	fit, err := fitTraced(y, Config{Seasonal: seasonal, ChangePoint: cp}, ws, opts, false)
	if err != nil {
		return 0, nil, err
	}
	return fit.AIC, fit.OptParams, nil
}
