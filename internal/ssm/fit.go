package ssm

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"

	"mictrend/internal/faultpoint"
	"mictrend/internal/kalman"
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
	// Stats, when non-nil, accumulates optimizer accounting (likelihood
	// evaluations, starts, restarts, failures) for this fit. It never
	// changes the fit's numerics.
	Stats *FitStats
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
// same order, same search, bitwise-identical estimates). It runs the search
// AICAtOptions runs, on a Scratch of its own around ws: every objective
// evaluation — Nelder-Mead's, and for a one-parameter fit the bracket
// probes' and Brent's — only updates the disturbance variances of one
// search model in place and runs the allocation-free likelihood filter
// through ws, and an evaluation at parameter bits the fit has already
// evaluated is answered from the likelihood memo without a filter pass.
// The full Filter pass (which materializes the smoother inputs) runs once,
// on a freshly built model at the winning parameters. The returned Fit,
// its Model and its Scaled series belong to the caller. ws may be nil; a
// workspace is not safe for concurrent use.
func FitConfigOptions(y []float64, cfg Config, ws *kalman.Workspace, opts FitOptions) (*Fit, error) {
	cfg = cfg.withDefaults()
	// The scratch lives for this call only, so the series it scales is
	// handed to the Fit.
	s := &Scratch{ws: ws}
	sr, err := s.fit(y, cfg, opts)
	if err != nil {
		return nil, err
	}
	epsVar, xiVar, omegaVar := scaledVariances(cfg.Seasonal, sr.sigma2, s.best)
	m, err := build(cfg, epsVar, xiVar, omegaVar)
	if err != nil {
		return nil, err
	}
	fr, err := m.Filter(s.scaled)
	if err != nil {
		return nil, err
	}
	fit := &Fit{
		Config:    cfg,
		Model:     m,
		Filter:    fr,
		LogLik:    sr.logLik,
		NumParams: cfg.NumParams(),
		EpsVar:    epsVar,
		XiVar:     xiVar,
		OmegaVar:  omegaVar,
		Scaled:    s.scaled,
		Scale:     sr.scale,
		Attempts:  sr.attempts,
		OptParams: append([]float64(nil), s.best...),
	}
	fit.AIC = -2*fit.LogLik + 2*float64(fit.NumParams)
	if k := cfg.numInterventions(); k > 0 {
		// λ coefficients are the trailing elements of the final predicted
		// state, in Interventions() order.
		final := fr.A[len(s.scaled)]
		fit.Lambdas = append([]float64(nil), final[m.Dim()-k:]...)
		fit.Lambda = fit.Lambdas[0]
	}
	if st := opts.Stats; st != nil {
		st.Fits.Add(1)
	}
	return fit, nil
}

// AICAtOptions is the change point search primitive: it fits cfg (defaults
// applied) on s and returns its AIC and the fitted optimum's parameters, the
// warm start for the next candidate. opts threads warm starts and FitStats
// accounting. It returns the AIC and OptParams that FitConfigOptions would,
// bit for bit, and the same error, but skips the fitted model's Filter pass:
// a search needs neither the smoother inputs nor the intervention
// coefficients. On a warmed scratch it allocates nothing.
//
// opt aliases s: it is valid until s's next fit, so a caller keeping it
// copies it. s may be nil, in which case a fresh scratch is used and opt is
// the caller's own.
func AICAtOptions(y []float64, cfg Config, s *Scratch, opts FitOptions) (aic float64, opt []float64, err error) {
	if s == nil {
		s = new(Scratch)
	}
	cfg = cfg.withDefaults()
	sr, err := s.fit(y, cfg, opts)
	if err != nil {
		return 0, nil, err
	}
	// Validate the σ²-scaled model as FitConfigOptions' Filter pass would:
	// the search model with the final variances set in place has the values
	// of the model FitConfigOptions builds, and LogLikFilter is the kernel
	// Filter records its history from, so it fails exactly when Filter
	// would.
	s.model.setVariances(scaledVariances(cfg.Seasonal, sr.sigma2, s.best))
	if _, err := s.model.m.LogLikFilter(s.scaled, s.ws); err != nil {
		return 0, nil, err
	}
	if st := opts.Stats; st != nil {
		st.Fits.Add(1)
	}
	return -2*sr.logLik + 2*float64(cfg.NumParams()), s.best, nil
}

// scaledVariances turns the concentrated σ̂² and the optimizer's relative
// log-variances x into the variance triple (ε, ξ, ω); ω is 0 without
// seasonality.
func scaledVariances(seasonal bool, sigma2 float64, x []float64) (epsVar, xiVar, omegaVar float64) {
	epsVar = sigma2
	xiVar = sigma2 * math.Exp(x[0])
	if seasonal {
		omegaVar = sigma2 * math.Exp(x[1])
	}
	return epsVar, xiVar, omegaVar
}

// Scratch is what one fit leaves for the next to reuse: the Kalman
// workspace, the rescaled series, one search model per shape (seasonality ×
// number of interventions), the optimizer's buffers, the likelihood memo,
// and the warm-start, start-list and best-point buffers. A change point scan
// runs all its fits on one scratch, and a fit on a warmed scratch allocates
// nothing. It also keeps the prefix scan's scanner (PrefixScanner). No
// result depends on what a scratch held before: every fit rewrites each
// value it reads. The zero value is ready to use; a Scratch is not safe for
// concurrent use.
type Scratch struct {
	ws     *kalman.Workspace
	opt    optimize.Workspace
	scaled []float64
	models []*structural
	memo   likMemo
	starts []simplexStart
	warm   []float64  // the fit's copy of FitOptions.Start
	best   []float64  // the best point found; OptParams of the last fit
	point  [1]float64 // the one-parameter objective's argument
	prefix *PrefixScanner

	// The fit under way, which the objectives read.
	cfg   Config
	model *structural
	// objective and objective1D are negLogLik and negLogLik1D, bound once
	// so that handing them to the optimizer allocates nothing.
	objective   func([]float64) float64
	objective1D func(float64) float64
}

// searchResult is the outcome of a fit's search: the concentrated
// log-likelihood and σ̂² at the best point (s.best), the series' scale
// divisor and the number of starts tried.
type searchResult struct {
	logLik, sigma2 float64
	scale          float64
	attempts       int
}

// fit runs the search of one fit of cfg (defaults applied) to y and
// accounts it in opts.Stats: the filter passes run, the starts tried, the
// restarts and, when every start fails, the failure. A successful fit is
// counted by the caller once its final check passes.
func (s *Scratch) fit(y []float64, cfg Config, opts FitOptions) (searchResult, error) {
	s.memo.reset()
	sr, err := s.search(y, cfg, opts)
	if st := opts.Stats; st != nil {
		st.LikEvals.Add(int64(s.memo.runs))
		st.Starts.Add(int64(sr.attempts))
		if sr.attempts > 1 {
			st.Restarts.Add(int64(sr.attempts - 1))
		}
		if _, failed := err.(*OptimizationError); failed {
			st.FitFailures.Add(1)
		}
	}
	return sr, err
}

// search rescales y into s, rebuilds the search model of cfg's shape, and
// runs the multi-start search; the winning point is left in s.best.
func (s *Scratch) search(y []float64, cfg Config, opts FitOptions) (searchResult, error) {
	var sr searchResult
	minLen := cfg.stateDim() + cfg.numVariances() + 2
	if len(y) < minLen {
		return sr, fmt.Errorf("%w: len %d < %d", ErrSeriesTooShort, len(y), minLen)
	}
	s.model = s.searchModel(cfg)
	for _, iv := range s.model.ivs {
		if iv.Month < 0 || iv.Month >= len(y) {
			return sr, fmt.Errorf("ssm: change point %d outside series of length %d", iv.Month, len(y))
		}
	}
	if s.ws == nil {
		s.ws = kalman.NewWorkspace()
	}
	if s.objective == nil {
		s.objective, s.objective1D = s.negLogLik, s.negLogLik1D
	}
	s.scaled, sr.scale = stat.RescaleInto(s.scaled, y)
	s.cfg = cfg

	// Optimize relative log-variances with σε² concentrated out.
	nq := 1
	if cfg.Seasonal {
		nq = 2
	}
	cold, err := fitStarts(nq, opts)
	if err != nil {
		return sr, err
	}
	starts := s.starts[:0]
	if opts.Start != nil {
		s.warm = append(s.warm[:0], opts.Start...)
		starts = append(starts, simplexStart{x: s.warm, step: DefaultWarmStep, warm: true})
	}
	s.starts = append(starts, cold...)

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
	bestF := math.Inf(1)
	haveBest := false
	for _, s0 := range s.starts {
		sr.attempts++
		detail := strconv.Itoa(sr.attempts)
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
			res, err = s.coldSearch1D(s0.x, nm, detail)
		} else {
			res, err = s.opt.NelderMead(s.objective, s0.x, nm)
		}
		if err != nil || math.IsInf(res.F, 1) || math.IsNaN(res.F) {
			continue
		}
		if !haveBest || res.F < bestF {
			// res.X aliases the optimizer's buffers, which the next start
			// reuses.
			s.best = append(s.best[:0], res.X...)
			bestF, haveBest = res.F, true
		}
		if res.Converged {
			break
		}
	}
	if !haveBest {
		return sr, &OptimizationError{Attempts: sr.attempts}
	}
	sr.logLik, sr.sigma2, err = s.memo.logLik(s.scaled, cfg, s.model.m, s.best, s.ws)
	return sr, err
}

// searchModel returns the scratch's search model for cfg's shape, with
// cfg's interventions set.
func (s *Scratch) searchModel(cfg Config) *structural {
	k := cfg.numInterventions()
	for _, sm := range s.models {
		if sm.seasonal == cfg.Seasonal && len(sm.ivs) == k && sm.m.Dim() == cfg.stateDim() {
			sm.setInterventions(cfg)
			return sm
		}
	}
	sm := newStructural(cfg)
	s.models = append(s.models, sm)
	return sm
}

// negLogLik is the search's objective: the negative profile log-likelihood
// of the fit under way at params, +Inf where it cannot be evaluated.
func (s *Scratch) negLogLik(params []float64) float64 {
	ll, _, err := s.memo.logLik(s.scaled, s.cfg, s.model.m, params, s.ws)
	if err != nil {
		return math.Inf(1)
	}
	return -ll
}

// negLogLik1D is negLogLik of a one-parameter fit at log q_ξ = v.
func (s *Scratch) negLogLik1D(v float64) float64 {
	s.point[0] = v
	return s.negLogLik(s.point[:])
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
func (s *Scratch) coldSearch1D(x0 []float64, nm optimize.NelderMeadOptions, detail string) (optimize.Result, error) {
	coarse := nm
	coarse.TolF, coarse.TolX = basinTolF, basinTolX
	res, err := s.opt.NelderMead(s.objective, x0, coarse)
	if err != nil || !res.Converged || math.IsInf(res.F, 1) {
		return s.opt.NelderMead(s.objective, x0, nm)
	}
	x, fx := res.X[0], res.F
	f := s.objective1D
	lo, hi := x-2*basinTolX, x+2*basinTolX
	loClosed, hiClosed := lo < -maxLogVar, hi > maxLogVar
	lo, hi = math.Max(lo, -maxLogVar), math.Min(hi, maxLogVar)
	if faultpoint.Inject("ssm/fit-bracket", detail) != nil ||
		!(loClosed || f(lo) > fx) || !(hiClosed || f(hi) > fx) {
		return s.opt.NelderMead(s.objective, x0, nm)
	}
	return s.opt.Brent(f, lo, hi, x, fx, polishTolX)
}

// simplexStart pairs an initial point with its simplex geometry: warm starts
// search a small absolute neighborhood at scan tolerances, cold starts the
// historical wide relative one at estimation tolerances.
type simplexStart struct {
	x    []float64
	step float64
	warm bool
}

// coldStarts holds the cold start list for each optimizer dimension (1 and
// 2): the same list for every fit, so it is built once. Its points are read
// only.
var coldStarts = [...][]simplexStart{1: coldStartList(1), 2: coldStartList(2)}

func coldStartList(nq int) []simplexStart {
	var out []simplexStart
	for _, x := range startPoints(nq) {
		out = append(out, simplexStart{x: x, step: coldStep})
	}
	return out
}

// fitStarts returns the deterministic cold starts for nq optimizer
// coordinates, after checking that a warm opts.Start has nq of them. A fit
// tries the warm start first, when there is one, and then these in order,
// so the cold list — and with it every historical fit — is reproduced
// exactly when opts is zero. The returned list is shared and read only.
func fitStarts(nq int, opts FitOptions) ([]simplexStart, error) {
	if opts.Start != nil && len(opts.Start) != nq {
		return nil, fmt.Errorf("ssm: warm start has %d parameters, want %d", len(opts.Start), nq)
	}
	return coldStarts[nq], nil
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
	logLik, sigma2, err = kalman.Concentrate(fr.SumLogF, fr.SumV2F, fr.LikCount)
	if err != nil {
		return 0, 0, errNoContributions
	}
	return logLik, sigma2, nil
}

// errNoContributions reports a filter pass in which no observation entered
// the likelihood (every one missing, or in the diffuse burn-in).
var errNoContributions = errors.New("ssm: no likelihood contributions")

// likMemoBits sets the size of a fit's likelihood memo: 2^likMemoBits slots.
const likMemoBits = 7

// likMemo remembers one fit's concentrated-likelihood evaluations by the bits
// of their parameters. A search revisits points: one-dimensional Nelder–Mead
// steps on a dyadic lattice, Brent's minimum steps and the bracket probes
// land on earlier points, and the final pass is at the search's best point.
// The memo is direct-mapped: an evaluation replaces whatever its slot held,
// so a hit returns exactly what concentratedLogLik returned for the same
// bits, and a miss merely runs the filter again. It lives in the fit's
// Scratch; reset empties it for the next fit by advancing the generation
// its entries must carry, so no slot is cleared.
type likMemo struct {
	slots [1 << likMemoBits]likEntry
	gen   uint64 // generation of the fit under way
	runs  int    // evaluations that missed and ran the filter
}

type likEntry struct {
	key        [2]uint64
	gen        uint64 // the entry belongs to the fit of this generation
	ll, sigma2 float64
	err        error
}

// reset empties the memo for a new fit.
func (c *likMemo) reset() {
	c.gen++
	c.runs = 0
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
	if e.gen == c.gen && e.key == key {
		return e.ll, e.sigma2, e.err
	}
	c.runs++
	logLik, sigma2, err = concentratedLogLik(scaled, cfg, m, params, ws)
	*e = likEntry{key: key, gen: c.gen, ll: logLik, sigma2: sigma2, err: err}
	return logLik, sigma2, err
}

// maxLogVar bounds the optimizer coordinates: relative log-variances beyond
// e^±20 add nothing but conditioning trouble on unit-scaled series.
const maxLogVar = 20

// errParamRange rejects an optimizer point outside ±maxLogVar. The seasonal
// search steps outside often, so the error is one shared value.
var errParamRange = errors.New("ssm: parameter out of range")

// checkParams validates optimizer coordinates against ±maxLogVar.
func checkParams(params []float64) error {
	for _, p := range params {
		if p < -maxLogVar || p > maxLogVar || math.IsNaN(p) {
			return errParamRange
		}
	}
	return nil
}
