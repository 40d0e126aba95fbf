package changepoint

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"mictrend/internal/faultpoint"
	"mictrend/internal/kalman"
	"mictrend/internal/obs"
	"mictrend/internal/ssm"
)

// The prefix-checkpointed exact scan replaces the fit-per-candidate AIC
// ladder with shared-parameter ladders scored in ~O(T) total filter steps:
// one filter pass over the no-intervention model checkpoints the state at
// every candidate boundary (ssm.PrefixScanner), and each candidate's AIC at
// the anchor parameters is recovered by resuming from its checkpoint. Two
// anchors — the no-intervention optimum and the best candidate's optimum —
// give every candidate an upper bound on its true AIC (a fixed-parameter
// likelihood never beats the per-candidate optimum); candidates whose bound
// is within prefixScreenMargin of the best fitted AIC are warm-fitted for
// real, and the warm contenders within refineMargin are refitted cold, so
// the final reduction compares exactly the serial scan's AICs. Everything
// downstream of the (serial, deterministic) ladders depends only on the
// series, so results and Fits are invariant to Workers.

// prefixFault is the fault-injection site inside the checkpoint-resume
// ladder; its detail is the candidate month being scored.
const prefixFault = "changepoint/prefix-resume"

// prefixScreenMargin is the screening band of the prefix ladders. A
// candidate's ladder score is its AIC at a shared anchor parameter vector —
// an upper bound on its true AIC that is tight near the anchor's AIC valley
// and loosens with parameter mismatch. Six AIC units (three log-likelihood
// units at the anchor's own parameters) is far beyond both the warm-fit
// slack and the parameter-mismatch slack observed across the corpus, while
// still discarding the flat shoulders of the valley — the scan's whole
// saving. The winner's membership in the screened set is what the corpus
// regression tests pin.
const prefixScreenMargin = 6.0

// refineMargin is the refinement band: contenders whose warm AIC is within
// this margin of the provisional winner are refitted cold before the final
// reduction. Warm-fit slack is on the order of the scan tolerance (~1e-4,
// occasionally ~1e-2 on a multimodal likelihood), so a margin of 1 — the
// conventional "indistinguishable models" AIC gap — comfortably pulls the
// true winner into the cold-refit set while keeping the set small: the AIC
// valley is steep away from its bottom.
const refineMargin = 1.0

// PrefixOptions configures the prefix-checkpointed exact scan.
type PrefixOptions struct {
	// Workers bounds the concurrency of the contender warm fits (≤0 = 1).
	// Any value yields identical results; the ladders, the screening, the
	// refinement, and the reduction are serial and deterministic.
	Workers int
	// Stats, when non-nil, accumulates optimizer accounting plus the scan's
	// PrefixResumes count. It never changes results.
	Stats *ssm.FitStats
	// Provenance, when non-nil, is filled with the scan's AIC ladder: every
	// candidate in serial order, tagged PathPrefix (screened out at its
	// ladder score), PathWarm (contender), or PathRefit (contender refitted
	// cold), with the no-intervention model first as PathCold.
	Provenance *Provenance
	// Trace, when non-nil, receives intra-scan spans: one "scan/prefix" span
	// per anchor ladder, one "scan/contenders" span for the warm-fit phase,
	// and one "scan/refit" span per cold refit. All are emitted from the
	// calling goroutine, so span order is worker-invariant.
	Trace obs.SpanObserver
}

// ExactPrefix is Algorithm 1 on the prefix-checkpointed evaluator: the same
// selection contract as Exact — the AIC-minimizing candidate, ties
// preferring no change point, compared at cold-fit AICs — at a fit budget
// that is O(1) model fits plus O(contenders) instead of one fit per
// candidate. Result.Fits counts the fits actually performed (anchors,
// contenders, refits) and is deterministic for a fixed series — Workers
// never changes it.
//
// Cancellation surfaces as ctx's error within one in-flight fit or resume.
// A panic in a contender fit is re-panicked on the calling goroutine after
// the workers drain, so callers' panic isolation keeps working.
func ExactPrefix(ctx context.Context, y []float64, seasonal bool, opts PrefixOptions) (Result, error) {
	n := len(y)
	if n < 2 {
		return Result{}, fmt.Errorf("changepoint: series length %d too short", n)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}

	ws := kalman.NewWorkspace()
	fit := func(cp int, start []float64, ws *kalman.Workspace) (float64, []float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		if err := faultpoint.Inject(scanFault, strconv.Itoa(cp)); err != nil {
			return 0, nil, err
		}
		return ssm.AICAtOptions(y, seasonal, cp, ws, ssm.FitOptions{Start: start, Stats: opts.Stats})
	}

	fits := 0
	aic0, theta0, err := fit(ssm.NoChangePoint, nil, ws)
	if err != nil {
		return Result{}, err
	}
	fits++

	hi := maxCandidate(n)
	if hi < 0 {
		res := Result{ChangePoint: ssm.NoChangePoint, AIC: aic0, NoChangeAIC: aic0, Fits: fits}
		if prov := opts.Provenance; prov != nil {
			prov.candidate(ssm.NoChangePoint, aic0, PathCold)
			prov.finish(SearchExactPrefix.String(), n, res)
		}
		return res, nil
	}

	ps, err := ssm.NewPrefixScanner(y, seasonal, hi)
	if err != nil {
		return Result{}, err
	}
	ps.Stats = opts.Stats
	// ladder scores every candidate at one anchor parameter vector: one
	// checkpointing filter pass, then one suffix resume per candidate.
	ladder := func(anchor int, params []float64, out []float64) error {
		began := obs.SpanStart(opts.Trace)
		err := func() error {
			if err := ps.Prepare(params); err != nil {
				return err
			}
			for cp := 0; cp <= hi; cp++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				if err := faultpoint.Inject(prefixFault, strconv.Itoa(cp)); err != nil {
					return err
				}
				v, err := ps.Score(cp)
				if err != nil {
					return err
				}
				out[cp] = v
			}
			return nil
		}()
		if opts.Trace != nil {
			obs.Emit(opts.Trace, obs.SpanEvent{Cat: "scan", Name: "scan/prefix", TID: obs.LaneScan, Start: began, Month: -1,
				Detail: fmt.Sprintf("anchor %d: %d resumes", anchor, hi+1)}, err)
		}
		return err
	}

	// Anchor selection. A ladder is only tight near its anchor's AIC valley,
	// and the no-intervention optimum can sit far from it: a no-intervention
	// fit of a strong break absorbs the slope into a huge level variance,
	// and a ladder at those parameters is loose everywhere. So three coarse
	// quantile probes — cold fits, whose multi-start escapes the
	// no-intervention basin a warm start from theta0 stays trapped in — give
	// a rough valley location, and the main ladder anchors at the best
	// probe's own optimum; the bounded chase below walks the anchor the rest
	// of the way. warm keeps every probe's fitted AIC (and thetas its
	// parameters); a mislocated valley on a multimodal curve only loosens
	// the screen below, never the selection.
	warm := make(map[int]float64)
	thetas := make(map[int][]float64)
	located := 0
	locatedAIC := math.Inf(1)
	for _, cp := range []int{hi / 2, hi / 4, hi - hi/4} {
		if _, done := warm[cp]; done {
			continue
		}
		aic, opt, err := fit(cp, nil, ws)
		if err != nil {
			return Result{}, err
		}
		fits++
		warm[cp] = aic
		if opt != nil {
			thetas[cp] = opt
		}
		if aic < locatedAIC {
			located, locatedAIC = cp, aic
		}
	}
	provisional := aic0
	for _, aic := range warm {
		if aic < provisional {
			provisional = aic
		}
	}

	// screen keeps each candidate's best score across the ladders — an upper
	// bound on its true AIC, tight near the anchors. Two ladders: one at the
	// no-intervention optimum (tight on no-break series, where every
	// candidate shares the anchor's parameters), one at the located valley
	// candidate's optimum (tight around a break). A short chase extends the
	// anchor set if the screen's argmin escapes the fitted candidates.
	screen := make([]float64, hi+1)
	tmp := make([]float64, hi+1)
	for cp := range screen {
		screen[cp] = math.Inf(1)
	}
	theta := theta0
	if t1, ok := thetas[located]; ok {
		theta = t1
	}
	anchorCount := 0
	runLadder := func(params []float64) error {
		if err := ladder(anchorCount, params, tmp); err != nil {
			return err
		}
		anchorCount++
		for cp := range screen {
			if tmp[cp] < screen[cp] {
				screen[cp] = tmp[cp]
			}
		}
		return nil
	}
	if err := runLadder(theta0); err != nil {
		return Result{}, err
	}
	if _, ok := thetas[located]; ok {
		if err := runLadder(theta); err != nil {
			return Result{}, err
		}
	}
	const maxChase = 2
	for chase := 0; chase < maxChase; chase++ {
		argmin := 0
		for cp := 1; cp <= hi; cp++ {
			if screen[cp] < screen[argmin] {
				argmin = cp
			}
		}
		if _, fitted := warm[argmin]; fitted {
			break
		}
		aicA, thetaA, err := fit(argmin, theta, ws)
		if err != nil {
			return Result{}, err
		}
		fits++
		warm[argmin] = aicA
		if aicA < provisional {
			provisional = aicA
		}
		if thetaA != nil {
			theta = thetaA
		}
		if err := runLadder(theta); err != nil {
			return Result{}, err
		}
	}

	// Screen: each candidate's best ladder score — or, for a probed
	// candidate, its achieved fit AIC if lower — bounds its true AIC from
	// above, so anything beyond the margin of the best fitted AIC cannot
	// win. Probe AICs never enter the reduction directly: a bisection probe
	// warm-started from an unrelated candidate's optimum can settle in a bad
	// local basin, far outside the refinement margin's slack contract, so
	// every survivor is refitted uniformly from the final anchor below.
	var survivors []int
	for cp := 0; cp <= hi; cp++ {
		bound := screen[cp]
		if w, ok := warm[cp]; ok && w < bound {
			bound = w
		}
		if bound <= provisional+prefixScreenMargin {
			survivors = append(survivors, cp)
		}
	}

	// Contender warm fits, all seeded from the final anchor: every fit
	// depends only on its own candidate, so the results — and the Fits
	// count — are identical for any worker split.
	warmAIC := make([]float64, len(survivors))
	theta1 := theta
	contendersBegan := obs.SpanStart(opts.Trace)
	var firstErr error
	if len(survivors) > 0 {
		inner, cancel := context.WithCancel(ctx)
		var (
			mu        sync.Mutex
			failIdx   = len(survivors)
			failErr   error
			failPanic any
		)
		record := func(idx int, err error, panicked any) {
			mu.Lock()
			if idx < failIdx {
				failIdx, failErr, failPanic = idx, err, panicked
			}
			mu.Unlock()
			cancel()
		}
		jobs := make(chan int, len(survivors))
		for i := range survivors {
			jobs <- i
		}
		close(jobs)
		if workers > len(survivors) {
			workers = len(survivors)
		}
		work := func() {
			wws := kalman.NewWorkspace()
			for i := range jobs {
				if inner.Err() != nil {
					return
				}
				var panicked bool
				aic, _, err := func() (aic float64, opt []float64, err error) {
					defer func() {
						if r := recover(); r != nil {
							panicked = true
							record(i, nil, r)
						}
					}()
					return fit(survivors[i], theta1, wws)
				}()
				if panicked {
					return
				}
				if err != nil {
					record(i, err, nil)
					return
				}
				warmAIC[i] = aic
			}
		}
		if workers <= 1 {
			work()
		} else {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					work()
				}()
			}
			wg.Wait()
		}
		cancel()
		if failIdx < len(survivors) {
			if failPanic != nil {
				panic(failPanic)
			}
			firstErr = failErr
		}
	}
	if opts.Trace != nil {
		obs.Emit(opts.Trace, obs.SpanEvent{Cat: "scan", Name: "scan/contenders", TID: obs.LaneScan, Start: contendersBegan, Month: -1,
			Detail: fmt.Sprintf("%d contenders", len(survivors))}, firstErr)
	}
	if firstErr != nil {
		return Result{}, firstErr
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	fits += len(survivors)

	// Cold refinement: contenders within refineMargin of the provisional
	// winner are refitted cold so the final comparison uses the serial
	// scan's AICs.
	provisional2 := aic0
	for _, aic := range warmAIC {
		if aic < provisional2 {
			provisional2 = aic
		}
	}
	final := make([]float64, len(survivors))
	copy(final, warmAIC)
	refitted := make([]bool, len(survivors))
	for i, cp := range survivors {
		if warmAIC[i] > provisional2+refineMargin {
			continue
		}
		began := obs.SpanStart(opts.Trace)
		aic, _, err := fit(cp, nil, ws)
		if err != nil {
			return Result{}, err
		}
		if opts.Trace != nil {
			obs.Emit(opts.Trace, obs.SpanEvent{Cat: "scan", Name: "scan/refit", TID: obs.LaneScan, Start: began, Month: -1,
				Detail: fmt.Sprintf("cp=%d", cp)}, nil)
		}
		final[i] = aic
		refitted[i] = true
		fits++
	}

	// Deterministic reduction with the serial scan's tie-breaking: strict
	// improvement only, candidates in ascending order. A contender that was
	// not refitted carries a warm AIC more than refineMargin above some cold
	// AIC, so it can never be the strict minimum.
	best := ssm.NoChangePoint
	bestAIC := aic0
	for i, cp := range survivors {
		if final[i] < bestAIC {
			best, bestAIC = cp, final[i]
		}
	}
	res := Result{ChangePoint: best, AIC: bestAIC, NoChangeAIC: aic0, Fits: fits}

	if prov := opts.Provenance; prov != nil {
		prov.candidate(ssm.NoChangePoint, aic0, PathCold)
		next := 0
		for cp := 0; cp <= hi; cp++ {
			if next < len(survivors) && survivors[next] == cp {
				if refitted[next] {
					prov.Candidates = append(prov.Candidates, CandidateEval{
						CP: cp, AIC: final[next], Path: PathRefit, WarmAIC: warmAIC[next],
					})
				} else {
					prov.candidate(cp, final[next], PathWarm)
				}
				next++
				continue
			}
			prov.candidate(cp, screen[cp], PathPrefix)
		}
		prov.finish(SearchExactPrefix.String(), n, res)
	}
	return res, nil
}

// DetectExactPrefix runs Algorithm 1 on y with the structural model using
// the prefix-checkpointed scan.
func DetectExactPrefix(y []float64, seasonal bool, opts PrefixOptions) (Result, error) {
	return ExactPrefix(context.Background(), y, seasonal, opts)
}
