package changepoint

import (
	"context"
	"slices"

	"mictrend/internal/obs"
	"mictrend/internal/ssm"
)

// SearchMethod selects the change point search algorithm for Detect. The
// zero value is SearchExact, the paper's Algorithm 1.
type SearchMethod int

// Search methods.
const (
	// SearchExact is the serial memoized Algorithm 1: every candidate fitted
	// cold at estimation tolerances.
	SearchExact SearchMethod = iota
	// SearchBinary is the approximate Algorithm 2 (O(log T) fits).
	SearchBinary
	// SearchExactParallel named the candidate-sharded warm scan, which the
	// prefix scan superseded; Detect now runs SearchExactPrefix for it.
	//
	// Deprecated: use SearchExactPrefix.
	SearchExactParallel
	// SearchExactPrefix is Algorithm 1 on the prefix-checkpointed evaluator:
	// shared-parameter AIC ladders scored by checkpoint resumes replace the
	// fit-per-candidate sweep, with warm contender fits and the cold
	// refinement pass arbitrating the final selection at serial AICs. Same
	// selection contract as SearchExact, O(1)+O(contenders) fits.
	SearchExactPrefix
)

// String names the method.
func (m SearchMethod) String() string {
	switch m {
	case SearchBinary:
		return "binary"
	case SearchExactParallel:
		return "exact-parallel"
	case SearchExactPrefix:
		return "exact-prefix"
	default:
		return "exact"
	}
}

// DetectOptions configures Detect, the options-first change point entry
// point. The zero value runs the serial exact scan of a non-seasonal model.
type DetectOptions struct {
	// Method is the search algorithm (default SearchExact).
	Method SearchMethod
	// Seasonal enables the 12-month seasonal component.
	Seasonal bool
	// Workers bounds the prefix scan's concurrent contender fits (≤0 = 1);
	// ignored by the serial methods. Any value yields identical results.
	Workers int
	// Stats, when non-nil, accumulates the search's optimizer accounting
	// (Kalman likelihood evaluations, multi-start restarts, failures). It
	// never changes results.
	Stats *ssm.FitStats
	// Observer, when non-nil, receives StageStart/StageEnd events bracketing
	// the search until ctx is cancelled. Deliveries are panic-isolated: a
	// panicking Observer loses its remaining events, never the search.
	Observer obs.Observer
	// Provenance, when non-nil, is filled with the search's decision record:
	// the full AIC ladder (every candidate's score and evaluation path), the
	// binary search's bisection trail, and the selected model's optimizer
	// solution (one extra cold fit, not counted in Result.Fits). Recording
	// never changes the search's numerics, and the record is deterministic
	// under the same contract as Result.
	Provenance *Provenance
	// Trace, when non-nil, receives intra-scan spans (the prefix scan's
	// scan/prefix, scan/contenders and scan/refit spans; the serial methods
	// emit none). Deliveries are panic-isolated like Observer's; a nil Trace
	// costs nothing.
	Trace obs.SpanObserver
}

// ScanEvaluations returns how many distinct models the exact scan evaluates
// for a series of length n: every admissible candidate plus the
// intervention-free model. For the serial exact scan Result.Fits equals it
// exactly; the prefix scan's Result.Fits is its own budget and may fall
// below or exceed it.
func ScanEvaluations(n int) int {
	if c := maxCandidate(n); c >= 0 {
		return c + 2
	}
	return 1
}

// Detect runs the selected change point search on series. It consolidates
// the DetectExact/DetectBinary/DetectExactPrefix entry points behind one
// options struct: each method produces byte-identical results to its
// dedicated function, with observability (DetectOptions.Stats,
// DetectOptions.Observer) threaded through without touching the numerics.
// The deprecated SearchExactParallel runs the prefix scan.
// Cancellation surfaces as ctx's error within one in-flight model fit.
func Detect(ctx context.Context, series []float64, opts DetectOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The scan's bracket reports progress only: a scan emits no stage span.
	sink := obs.NewSink(ctx, opts.Observer, nil, nil)
	begin := sink.StageStart("scan", ScanEvaluations(len(series)))
	var (
		res Result
		err error
	)
	s := scratches.Get().(*ssm.Scratch)
	switch opts.Method {
	case SearchBinary:
		res, err = binary(len(series), ContextAIC(ctx, ssmEvaluator(series, opts.Seasonal, opts.Stats, s)), opts.Provenance)
	case SearchExactParallel, SearchExactPrefix:
		res, err = ExactPrefix(ctx, series, opts.Seasonal, PrefixOptions{
			Workers: opts.Workers, Stats: opts.Stats,
			Provenance: opts.Provenance, Trace: obs.GuardSpans(opts.Trace, nil),
		})
	default:
		res, err = exact(len(series), ContextAIC(ctx, ssmEvaluator(series, opts.Seasonal, opts.Stats, s)), opts.Provenance)
	}
	if p := opts.Provenance; p != nil && err == nil {
		p.Seasonal = opts.Seasonal
		// One extra cold fit of the winning configuration recovers the
		// selected model's parameter vector; it replays the serial path's
		// numerics, so it never changes the result and is not counted in
		// Result.Fits.
		if _, opt, perr := ssm.AICAtOptions(series, ssm.Config{Seasonal: opts.Seasonal, ChangePoint: res.ChangePoint}, s, ssm.FitOptions{Stats: opts.Stats}); perr == nil {
			p.Params = slices.Clone(opt)
		}
	}
	scratches.Put(s)
	sink.StageEnd("scan", begin, 0, res.Fits, err)
	return res, err
}
