package changepoint

// Decision provenance for the change point searches: a complete, replayable
// record of why a search selected the model it did. The record is
// deterministic under the same contract as Result — its content depends only
// on the series, its length, and the search method, never on worker count or
// scheduling — so provenance from a multi-worker prefix scan can be diffed
// against a one-worker run's.

// Evaluation paths a candidate's AIC can arrive through.
const (
	// PathCold marks a cold fit at estimation tolerances — the serial exact
	// scan's only path, and the prefix scan's no-intervention fit.
	PathCold = "cold"
	// PathWarm marks a prefix-scan contender fitted warm, at scan
	// tolerances, from the final ladder anchor.
	PathWarm = "warm"
	// PathRefit marks a candidate whose warm AIC landed within the refinement
	// margin of the provisional winner and was refitted cold; AIC holds the
	// cold value and WarmAIC the warm value it replaced.
	PathRefit = "refit"
	// PathProbe marks a binary-search evaluation (cold fit, visited in
	// bisection order rather than serially).
	PathProbe = "probe"
	// PathPrefix marks a candidate the prefix-checkpointed scan screened out
	// without fitting: AIC holds its best shared-parameter ladder score, an
	// upper bound on the AIC a fit would have produced.
	PathPrefix = "prefix"
)

// CandidateEval is one rung of the AIC ladder: a candidate change point
// (ssm.NoChangePoint for the intervention-free model), the AIC the search
// compared, and how that AIC was produced.
type CandidateEval struct {
	// CP is the candidate 0-based change month, or ssm.NoChangePoint.
	CP int `json:"cp"`
	// AIC is the score the final reduction compared for this candidate.
	AIC float64 `json:"aic"`
	// Path is how AIC was computed: PathCold, PathWarm, PathRefit,
	// PathProbe, or PathPrefix.
	Path string `json:"path"`
	// WarmAIC is the warm-tolerance AIC a PathRefit candidate scored before
	// its cold refit; zero (and omitted from JSON) on every other path.
	WarmAIC float64 `json:"warm_aic,omitempty"`
}

// BinaryStep is one bisection decision of Algorithm 2: the interval
// inspected, the endpoint AICs, and which half survived.
type BinaryStep struct {
	// Left and Right are the interval's candidate endpoints.
	Left  int `json:"left"`
	Right int `json:"right"`
	// AICLeft and AICRight are the endpoint scores driving the decision.
	AICLeft  float64 `json:"aic_left"`
	AICRight float64 `json:"aic_right"`
	// Move is the pruning decision: "left" or "right" names the surviving
	// half; "leaf-left" or "leaf-right" names the endpoint a terminal
	// two-candidate interval selected.
	Move string `json:"move"`
}

// Provenance records a change point search's full decision trail. Pass an
// empty value via DetectOptions.Provenance (or PrefixOptions.Provenance)
// and the search fills it; recording never changes the search's numerics or
// its Result. A nil *Provenance disables recording at zero cost.
type Provenance struct {
	// Method is the search that ran ("exact", "binary", "exact-prefix").
	Method string `json:"method"`
	// N is the series length searched.
	N int `json:"n"`
	// Seasonal reports whether the fitted model carried the 12-month
	// seasonal component (set by Detect; zero for the raw search cores).
	Seasonal bool `json:"seasonal"`
	// Candidates is the AIC ladder. For the exact scans it holds every
	// evaluated position in serial order (the intervention-free model first,
	// then candidates ascending); for the binary search it holds the distinct
	// evaluations in visit order.
	Candidates []CandidateEval `json:"candidates"`
	// Steps is the binary search's bisection trail (empty for exact scans).
	Steps []BinaryStep `json:"steps,omitempty"`
	// ChangePoint, AIC, NoChangeAIC, and Fits mirror the search's Result.
	ChangePoint int     `json:"change_point"`
	AIC         float64 `json:"aic"`
	NoChangeAIC float64 `json:"no_change_aic"`
	Fits        int     `json:"fits"`
	// Params is the optimizer's solution for the selected model, produced by
	// one extra cold fit of the winning configuration (not counted in Fits).
	// Set by Detect when provenance is requested; nil if that fit failed.
	Params []float64 `json:"params,omitempty"`
}

// candidate appends one ladder rung (no-op on a nil receiver).
func (p *Provenance) candidate(cp int, aic float64, path string) {
	if p == nil {
		return
	}
	p.Candidates = append(p.Candidates, CandidateEval{CP: cp, AIC: aic, Path: path})
}

// step appends one bisection decision (no-op on a nil receiver).
func (p *Provenance) step(left, right int, aicL, aicR float64, move string) {
	if p == nil {
		return
	}
	p.Steps = append(p.Steps, BinaryStep{
		Left: left, Right: right, AICLeft: aicL, AICRight: aicR, Move: move,
	})
}

// finish copies the search outcome into the record (no-op on a nil receiver).
func (p *Provenance) finish(method string, n int, res Result) {
	if p == nil {
		return
	}
	p.Method, p.N = method, n
	p.ChangePoint, p.AIC = res.ChangePoint, res.AIC
	p.NoChangeAIC, p.Fits = res.NoChangeAIC, res.Fits
}
