// Package trend wires the two stages of the paper into an end-to-end
// pipeline (Fig. 1): fit the probabilistic medication model to every monthly
// MIC dataset, reproduce the disease/medicine/prescription time series
// (Eqs. 7–8), filter unreliable series (§VI), run AIC change point detection
// over every series on a two-level worker budget (series-level parallelism
// that spills into intra-series scan parallelism when cores would otherwise
// idle), and classify each detected prescription-level change as disease-,
// medicine-, or prescription-derived (§III-B).
package trend

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"mictrend/internal/changepoint"
	"mictrend/internal/faultpoint"
	"mictrend/internal/medmodel"
	"mictrend/internal/mic"
	"mictrend/internal/obs"
)

// Method selects the change point search algorithm. It is the pipeline-level
// name for changepoint.SearchMethod, so the two option surfaces share one
// vocabulary.
type Method = changepoint.SearchMethod

// Search methods.
const (
	// MethodExact is Algorithm 1. The pipeline runs it on the prefix scan
	// (selection identical to the serial scan), whose contender fits use the
	// idle tokens the worker budget grants.
	MethodExact = changepoint.SearchExact
	// MethodBinary is Algorithm 2.
	MethodBinary = changepoint.SearchBinary
)

// SeriesKind distinguishes the three series families of the paper.
type SeriesKind int

// Series kinds.
const (
	KindDisease SeriesKind = iota
	KindMedicine
	KindPrescription
	// KindMedicineClass is an aggregate: the sum of one medicine class's
	// member series (ATC-like level, e.g. "B01"). Produced by Surveil.
	KindMedicineClass
	// KindMedicineGroup is an aggregate: the sum of one anatomical group's
	// class series (e.g. "B"). Produced by Surveil.
	KindMedicineGroup
	// KindDiseaseGroup is an aggregate: the sum of one disease group's
	// disease series. Produced by Surveil.
	KindDiseaseGroup
)

// String names the kind.
func (k SeriesKind) String() string {
	switch k {
	case KindDisease:
		return "disease"
	case KindMedicine:
		return "medicine"
	case KindMedicineClass:
		return "class"
	case KindMedicineGroup:
		return "class-group"
	case KindDiseaseGroup:
		return "disease-group"
	default:
		return "prescription"
	}
}

// Detection is one series' change point search outcome.
type Detection struct {
	Kind     SeriesKind
	Disease  mic.DiseaseID  // valid for KindDisease and KindPrescription
	Medicine mic.MedicineID // valid for KindMedicine and KindPrescription
	Series   []float64
	Result   changepoint.Result
}

// Options configures the pipeline.
type Options struct {
	// Method is the change point search algorithm (default exact).
	Method Method
	// Seasonal enables the seasonal component in the fitted models
	// (default true via DefaultOptions).
	Seasonal bool
	// MinSeriesTotal drops series whose total frequency is below this
	// threshold before fitting (the paper uses 10).
	MinSeriesTotal float64
	// MinMonthlyFreq drops rare diseases/medicines per month before EM (the
	// paper uses 5).
	MinMonthlyFreq int
	// Workers bounds the pipeline's concurrency (default GOMAXPROCS): the
	// change point detection pool, and — unless EM.Workers overrides it —
	// the per-month medication model fits.
	Workers int
	// ScanWorkers caps how many of the shared Workers tokens one exact
	// change point scan may hold (its own plus idle extras claimed from the
	// two-level budget). 0 means auto: a scan soaks up every idle token, so
	// a single-series run — or the draining tail of a batch — parallelizes
	// inside the scan instead of idling cores. 1 forces serial scans.
	// Results are identical for every setting; only wall-clock changes.
	ScanWorkers int
	// Shards is ignored: one dispatcher admits every series to the shared
	// worker budget, and the analysis was byte-identical for every value.
	//
	// Deprecated: no effect; kept so existing callers compile.
	Shards int
	// EM tunes the medication model fit. EM.Workers defaults to Workers, and
	// EM.Observer/EM.Metrics default to the pipeline's Observer/Metrics.
	EM medmodel.FitOptions
	// Observer, when non-nil, receives the pipeline's progress events:
	// StageStart/StageEnd around the model, reproduce, and detect stages, one
	// MonthFitted per month, one SeriesDone per series. Per-unit events
	// arrive in serial order (months ascending, series in job order) for any
	// Workers/ScanWorkers split, and deliveries are serialized. A panicking
	// Observer is recovered, recorded as a StageObserver failure, and
	// permanently muted; cancelling ctx stops delivery. Nil costs nothing.
	Observer obs.Observer
	// Metrics, when non-nil, collects the run's counters, histograms, and
	// stage timers (see the README's metrics table). The registry's
	// counter/gauge/histogram sections are deterministic for a given input
	// regardless of worker counts; only its timings vary. Nil costs nothing
	// on the fit path.
	Metrics *obs.Registry
	// Trace, when non-nil, receives the run's timed spans: one stage span per
	// pipeline stage, one em/month span per month, one detect/series span per
	// series (degraded series carry their failure stage), and the exact
	// scans' prefix/contenders/refit spans. Wire obs.NewTracer().Observe here
	// and write the collected spans with Tracer.WriteTrace. Span content is
	// deterministic for a given input — only timestamps vary — and per-unit
	// spans arrive in serial order. Deliveries are panic-isolated like
	// Observer's (a panicking sink is muted and recorded as a StageObserver
	// failure) but are NOT stopped by cancellation, so an interrupted run
	// still flushes a valid partial trace. Nil costs nothing.
	Trace obs.SpanObserver
	// Explain collects decision provenance: Analysis.MonthProvenance records
	// each month's EM convergence (per-iteration log-likelihoods, fallback
	// events) and Analysis.SeriesProvenance each series' full AIC ladder and
	// selected model parameters (see changepoint.Provenance). Provenance
	// never changes any result; export it with WriteExplain. Off (the
	// default) the pipeline allocates none of it.
	Explain bool
	// Checkpoint, when non-nil, makes the model stage resumable: each month's
	// fitted state is loaded from the checkpointer when its DataHash matches
	// the current (filtered) month, and every freshly fitted month is saved
	// back before detection starts. The resulting Analysis is byte-identical
	// to an uncheckpointed run; only the fits skipped change. A SaveMonth
	// failure aborts the analysis — durable means durable. Nil (the default)
	// keeps the stage on its plain FitAll path.
	Checkpoint Checkpointer
}

// DefaultOptions mirrors the paper's setup.
func DefaultOptions() Options {
	return Options{
		Method:         MethodExact,
		Seasonal:       true,
		MinSeriesTotal: 10,
		MinMonthlyFreq: 5,
	}
}

func (o Options) withDefaults() Options {
	if o.MinSeriesTotal <= 0 {
		o.MinSeriesTotal = 10
	}
	if o.MinMonthlyFreq <= 0 {
		o.MinMonthlyFreq = 5
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.EM.Workers <= 0 {
		o.EM.Workers = o.Workers
	}
	return o
}

// FailureStage identifies where in the pipeline a recorded failure occurred.
type FailureStage int

// Failure stages.
const (
	// StageModel is a per-month EM fit failure; the month was degraded to
	// the cooccurrence fallback model.
	StageModel FailureStage = iota
	// StageValidate is a series rejected before detection (NaN/Inf values).
	StageValidate
	// StageDetect is a change point search that failed or panicked; the
	// series carries no detection.
	StageDetect
	// StageObserver is a user progress Observer that panicked; the pipeline
	// muted it and kept running, so the run lost events but no results.
	StageObserver
	// StageSurveil is an aggregate or drill-down change point scan inside
	// Surveil that failed or panicked; the hierarchy node (or child) carries
	// no detection but the surveillance run kept going.
	StageSurveil
)

// String names the stage.
func (s FailureStage) String() string {
	switch s {
	case StageModel:
		return "model"
	case StageValidate:
		return "validate"
	case StageObserver:
		return "observer"
	case StageSurveil:
		return "surveil"
	default:
		return "detect"
	}
}

// Failure is one recorded per-month or per-series degradation: the pipeline
// kept running, and this entry explains what was skipped or downgraded.
type Failure struct {
	// Stage is the pipeline stage that failed.
	Stage FailureStage
	// Kind, Disease, Medicine identify the series for StageValidate and
	// StageDetect failures (as in Detection, id validity depends on Kind).
	Kind     SeriesKind
	Disease  mic.DiseaseID
	Medicine mic.MedicineID
	// Node is the hierarchy node code for StageSurveil failures on aggregate
	// series ("" for leaf series).
	Node string
	// Month is the failed month for StageModel failures, -1 otherwise.
	Month int
	// Err is the failure message.
	Err string
	// Attempts is the number of optimization starts tried before the series
	// was declared failed (0 when unknown or not applicable).
	Attempts int
	// Panicked reports whether the failure was a recovered worker panic.
	Panicked bool
}

// String renders the failure for reports.
func (f Failure) String() string {
	var what string
	switch f.Stage {
	case StageModel:
		what = fmt.Sprintf("month %d", f.Month)
	case StageObserver:
		return fmt.Sprintf("%s: %s", f.Stage, f.Err)
	default:
		what = f.Key().String()
	}
	s := fmt.Sprintf("%s %s: %s", f.Stage, what, f.Err)
	if f.Attempts > 0 {
		s += fmt.Sprintf(" (after %d starts)", f.Attempts)
	}
	return s
}

// Analysis is the full pipeline output.
type Analysis struct {
	// Models holds the fitted medication model per month. Months whose EM
	// fit failed carry the cooccurrence fallback model and a StageModel
	// failure entry.
	Models []*medmodel.Model
	// Series holds the reproduced (and reliability-filtered) time series.
	Series *medmodel.SeriesSet
	// Diseases, Medicines, Prescriptions hold one Detection per surviving
	// series, sorted by id for determinism. Series whose detection failed
	// are absent here and present in Failures.
	Diseases      []Detection
	Medicines     []Detection
	Prescriptions []Detection
	// Failures records every per-month and per-series degradation of the
	// run, sorted deterministically (stage, then month/ids).
	Failures []Failure
	// TotalFits counts model fits across all searches (Table V's cost).
	TotalFits int
	// MonthProvenance and SeriesProvenance hold the run's decision
	// provenance — one entry per month and per considered series — when
	// Options.Explain is set, nil otherwise. SeriesProvenance lists the
	// detection jobs in job order, then validation-rejected series. Export
	// them with WriteExplain.
	MonthProvenance  []MonthProvenance
	SeriesProvenance []SeriesProvenance

	// scan records the scan options Analyze ran with, so Surveil reuses the
	// leaf scans only when its own scans would reproduce them.
	scan scanConfig
}

// pipelineInstruments carries Analyze's observability wiring: the run's
// sink (nil without an Observer or a Trace), the metrics registry, and the
// observer failures recorded so far. A nil *pipelineInstruments (no hook
// set) makes every method a no-op, keeping the disabled path free.
type pipelineInstruments struct {
	sink    *obs.Sink
	metrics *obs.Registry
	exact   bool // scan-cost counters only make sense for the exact scans

	mu        sync.Mutex
	obsFails  []Failure
	tripsBase int64
}

func newPipelineInstruments(ctx context.Context, opts Options) *pipelineInstruments {
	if opts.Observer == nil && opts.Metrics == nil && opts.Trace == nil {
		return nil
	}
	ins := &pipelineInstruments{
		metrics:   opts.Metrics,
		exact:     opts.Method != MethodBinary,
		tripsBase: faultpoint.Trips(),
	}
	ins.sink = obs.NewSink(ctx, opts.Observer, opts.Trace, func(msg string) {
		ins.mu.Lock()
		ins.obsFails = append(ins.obsFails, Failure{
			Stage: StageObserver, Month: -1, Err: msg, Panicked: true,
		})
		ins.mu.Unlock()
	})
	return ins
}

// sinkOf returns the run's sink, nil when ins is.
func sinkOf(ins *pipelineInstruments) *obs.Sink {
	if ins == nil {
		return nil
	}
	return ins.sink
}

// stage opens one pipeline stage (StageStart) and returns its closer, which
// records the stage timer and emits the stage span and its StageEnd.
func (ins *pipelineInstruments) stage(name string, total int) func(done int, err error) {
	if ins == nil {
		return func(int, error) {}
	}
	t0 := time.Now()
	ins.sink.StageStart(name, total)
	return func(done int, err error) {
		ins.metrics.Timer("time/stage/" + name).Observe(time.Since(t0))
		ins.sink.StageEnd(name, t0, total, done, err)
	}
}

// finish folds the run-level accounting into a run's failures and registry:
// it appends the observer-panic failures, counts failures per stage, and
// records the run's fault-injection trip delta.
func (ins *pipelineInstruments) finish(failures []Failure) []Failure {
	if ins == nil {
		return failures
	}
	ins.mu.Lock()
	failures = append(failures, ins.obsFails...)
	ins.mu.Unlock()
	if m := ins.metrics; m != nil {
		m.Gauge("faultpoint/trips").Set(faultpoint.Trips() - ins.tripsBase)
		for _, f := range failures {
			m.Counter("pipeline/failures/" + f.Stage.String()).Inc()
		}
	}
	return failures
}

// Analyze runs the full two-stage pipeline over ds once. It is
// NewAnalyzer(opts).Analyze(ctx, ds): a fresh Analyzer keeps nothing from
// an earlier call, so every month is filtered and reproduced here. Its
// failure semantics are the method's.
func Analyze(ctx context.Context, ds *mic.Dataset, opts Options) (*Analysis, error) {
	return NewAnalyzer(opts).Analyze(ctx, ds)
}

// Analyze runs the full two-stage pipeline over ds, reusing what each month
// contributed on its own to an earlier call (see Analyzer). The result is
// byte-identical to a fresh Analyzer's.
//
// Failure semantics: the pipeline degrades instead of failing atomically. A
// month whose EM fit errors or panics falls back to the cooccurrence model;
// a series containing NaN/Inf is skipped before detection; a series whose
// change point search fails (after multi-start recovery) or panics loses
// only its own detection; a panicking progress Observer is muted. Every such
// event is recorded in Analysis.Failures. The error return is reserved for
// corpus-level problems (reproduction) and for ctx: when ctx is cancelled
// mid-scan, Analyze stops within one in-flight model fit and returns the
// detections completed so far alongside ctx's error.
func (a *Analyzer) Analyze(ctx context.Context, ds *mic.Dataset) (*Analysis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts, ins := setupPipeline(ctx, a.opts)
	analysis, jobs, valFails, err := a.prepare(ctx, ds, opts, ins)
	if err != nil {
		return nil, err
	}
	endDetect := ins.stage("detect", len(jobs))
	results, detFails, seriesProvs, totalFits, derr := detectAll(ctx, jobs, opts, ins)
	endDetect(len(results), derr)
	analysis.Failures = append(analysis.Failures, detFails...)
	analysis.TotalFits = totalFits
	analysis.scan = scanConfigOf(opts)
	if opts.Explain {
		analysis.SeriesProvenance = seriesProvs
		analysis.SeriesProvenance = append(analysis.SeriesProvenance, valProvenance(valFails)...)
	}
	analysis.Failures = ins.finish(analysis.Failures)
	if ins != nil {
		ins.metrics.Counter("scan/total_fits").Add(int64(analysis.TotalFits))
	}
	sortFailures(analysis.Failures)
	for _, det := range results {
		switch det.Kind {
		case KindDisease:
			analysis.Diseases = append(analysis.Diseases, det)
		case KindMedicine:
			analysis.Medicines = append(analysis.Medicines, det)
		default:
			analysis.Prescriptions = append(analysis.Prescriptions, det)
		}
	}
	if derr != nil {
		// Cancelled mid-scan: hand back the partial analysis with the error
		// so callers can report what completed.
		return analysis, derr
	}
	return analysis, nil
}

// setupPipeline applies the option defaults shared by Analyze and Surveil and
// builds their instrument set, wiring the EM stage's metrics default to the
// pipeline's (fitModels routes its event and span streams).
func setupPipeline(ctx context.Context, opts Options) (Options, *pipelineInstruments) {
	opts = opts.withDefaults()
	if opts.Explain {
		opts.EM.TraceConvergence = true
	}
	ins := newPipelineInstruments(ctx, opts)
	if ins != nil && opts.EM.Metrics == nil {
		opts.EM.Metrics = ins.metrics
	}
	return opts, ins
}

// valProvenance builds the provenance entries for validation-rejected series;
// callers append them after the detection-job entries so the provenance list
// keeps its documented order.
func valProvenance(valFails []Failure) []SeriesProvenance {
	var provs []SeriesProvenance
	for _, f := range valFails {
		provs = append(provs, SeriesProvenance{
			Kind: f.Kind.String(), Disease: f.Disease, Medicine: f.Medicine,
			Key:     f.Key().String(),
			Failure: f.Err, FailureStage: StageValidate.String(),
		})
	}
	return provs
}

// prepare runs the shared front half of the pipeline — dataset filtering, the
// model stage (with cooccurrence fallbacks and month provenance), the
// reproduce stage, and series validation — exactly as Analyze always has, so
// Surveil's event stream, metrics, spans, and failure records match Analyze's
// on the stages they share. Filtering and reproduction go through the
// Analyzer's per-month state. opts must already carry its defaults
// (setupPipeline). The returned jobs are the validated detection jobs; the
// validation failures are already appended to the analysis but their
// provenance entries are the caller's (Analyze lists detection jobs first).
func (a *Analyzer) prepare(ctx context.Context, ds *mic.Dataset, opts Options, ins *pipelineInstruments) (*Analysis, []Detection, []Failure, error) {
	filtered, hashes := a.filterMonths(ds, opts, ins)
	analysis := &Analysis{}
	endModel := ins.stage("model", len(filtered.Months))
	models, sums, monthFails, err := fitModels(ctx, filtered, hashes, opts, ins)
	endModel(len(filtered.Months)-len(monthFails), err)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("trend: fitting medication models: %w", err)
	}
	for _, mf := range monthFails {
		models[mf.Month] = medmodel.FallbackModel(filtered.Months[mf.Month], filtered.Medicines.Len())
		analysis.Failures = append(analysis.Failures, Failure{
			Stage: StageModel, Month: mf.Month, Err: mf.Err.Error(), Panicked: mf.Panicked,
		})
	}
	if ins != nil && len(monthFails) > 0 {
		ins.metrics.Counter("em/fallbacks").Add(int64(len(monthFails)))
	}
	if opts.Explain {
		analysis.MonthProvenance = make([]MonthProvenance, len(models))
		for i, m := range models {
			mp := MonthProvenance{Month: i}
			if m != nil {
				mp.Iterations = m.Iterations
				mp.LogLik = m.LogLik
				mp.LogLikTrace = m.LogLikTrace
			}
			analysis.MonthProvenance[i] = mp
		}
		for _, mf := range monthFails {
			mp := &analysis.MonthProvenance[mf.Month]
			mp.Fallback = true
			mp.Err = mf.Err.Error()
			mp.Panicked = mf.Panicked
		}
	}
	endRepro := ins.stage("reproduce", -1)
	series, err := a.reproduce(filtered, models, sums, opts.Workers, ins)
	if err != nil {
		endRepro(0, err)
		return nil, nil, nil, fmt.Errorf("trend: reproducing series: %w", err)
	}
	series = series.FilterMinTotal(opts.MinSeriesTotal)

	analysis.Models = models
	analysis.Series = series
	jobs, valFails := validateJobs(collectJobs(series))
	endRepro(len(jobs), nil)
	analysis.Failures = append(analysis.Failures, valFails...)
	for _, f := range valFails {
		// Zero-duration span per rejected series so degraded series appear in
		// the trace with their failure stage even though they never ran.
		sinkOf(ins).Span(obs.SpanEvent{Cat: "detect", Name: "detect/series", TID: obs.LaneDetect, Start: time.Now(), Month: -1,
			Series: f.Key().String(), Detail: "stage=" + StageValidate.String(), Err: f.Err})
	}
	return analysis, jobs, valFails, nil
}

// validateJobs rejects series the Kalman filter cannot digest (NaN or Inf
// values would poison every downstream covariance update), recording one
// failure per rejected series.
func validateJobs(jobs []Detection) (valid []Detection, failures []Failure) {
	valid = jobs[:0]
	for _, det := range jobs {
		if i, ok := firstNonFinite(det.Series); ok {
			failures = append(failures, Failure{
				Stage: StageValidate, Kind: det.Kind, Disease: det.Disease, Medicine: det.Medicine,
				Month: -1, Err: fmt.Sprintf("series value at month %d is %v", i, det.Series[i]),
			})
			continue
		}
		valid = append(valid, det)
	}
	return valid, failures
}

// firstNonFinite returns the index of the first NaN/Inf value of y.
func firstNonFinite(y []float64) (int, bool) {
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i, true
		}
	}
	return 0, false
}

// sortFailures orders failures deterministically regardless of worker
// completion order: stage, then month, then series identity.
func sortFailures(fs []Failure) {
	sort.Slice(fs, func(a, b int) bool {
		if fs[a].Stage != fs[b].Stage {
			return fs[a].Stage < fs[b].Stage
		}
		if fs[a].Month != fs[b].Month {
			return fs[a].Month < fs[b].Month
		}
		if fs[a].Kind != fs[b].Kind {
			return fs[a].Kind < fs[b].Kind
		}
		if fs[a].Node != fs[b].Node {
			return fs[a].Node < fs[b].Node
		}
		if fs[a].Disease != fs[b].Disease {
			return fs[a].Disease < fs[b].Disease
		}
		return fs[a].Medicine < fs[b].Medicine
	})
}

// collectJobs enumerates every series to search, deterministically ordered.
func collectJobs(series *medmodel.SeriesSet) []Detection {
	var jobs []Detection
	diseases := series.Diseases()
	sort.Slice(diseases, func(a, b int) bool { return diseases[a] < diseases[b] })
	for _, d := range diseases {
		jobs = append(jobs, Detection{Kind: KindDisease, Disease: d, Series: series.Disease(d)})
	}
	meds := series.Medicines()
	sort.Slice(meds, func(a, b int) bool { return meds[a] < meds[b] })
	for _, m := range meds {
		jobs = append(jobs, Detection{Kind: KindMedicine, Medicine: m, Series: series.Medicine(m)})
	}
	pairs := make([]mic.Pair, 0, len(series.Pairs))
	for p := range series.Pairs {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].Disease != pairs[b].Disease {
			return pairs[a].Disease < pairs[b].Disease
		}
		return pairs[a].Medicine < pairs[b].Medicine
	})
	for _, p := range pairs {
		jobs = append(jobs, Detection{
			Kind: KindPrescription, Disease: p.Disease, Medicine: p.Medicine,
			Series: series.Pair(p),
		})
	}
	return jobs
}

// detectAll runs change point detection over the pipeline's jobs through
// scanAll, scanning each distinct series once, and returns the surviving
// detections in job order.
func detectAll(ctx context.Context, jobs []Detection, opts Options, ins *pipelineInstruments) ([]Detection, []Failure, []SeriesProvenance, int, error) {
	scans := make([]scanJob, len(jobs))
	for i, job := range jobs {
		scans[i] = scanJob{key: job.Key(), series: job.Series}
	}
	results, ok, failures, provs, totalFits, err := scanAll(ctx, detectStage, scans, newScanMemo(), opts, ins)
	dets := make([]Detection, 0, len(jobs))
	for i, job := range jobs {
		if ok[i] {
			job.Result = results[i]
			dets = append(dets, job)
		}
	}
	return dets, failures, provs, totalFits, err
}

// DetectedChangePoints returns the subset of detections with a change point,
// most confident (largest AIC improvement) first.
func DetectedChangePoints(dets []Detection) []Detection {
	var out []Detection
	for _, d := range dets {
		if d.Result.Detected() {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		ia := out[a].Result.NoChangeAIC - out[a].Result.AIC
		ib := out[b].Result.NoChangeAIC - out[b].Result.AIC
		return ia > ib
	})
	return out
}

// Cause categorizes a prescription-level trend change per the paper's
// §III-B taxonomy.
type Cause int

// Causes of a prescription trend change.
const (
	CauseNone         Cause = iota // no change detected
	CauseDisease                   // the disease series broke at the same time
	CauseMedicine                  // the medicine series broke at the same time
	CausePrescription              // only the pair broke: interaction effect
)

// String names the cause.
func (c Cause) String() string {
	switch c {
	case CauseDisease:
		return "disease-derived"
	case CauseMedicine:
		return "medicine-derived"
	case CausePrescription:
		return "prescription-derived"
	default:
		return "none"
	}
}

// ClassifyChanges attributes each detected prescription change to its cause
// by checking whether the corresponding disease or medicine series broke
// within tolerance months of the pair's change point. Disease attribution
// wins ties (a disease-wide epidemic shift explains all its pairs).
func ClassifyChanges(a *Analysis, tolerance int) map[mic.Pair]Cause {
	diseaseCP := make(map[mic.DiseaseID]int)
	for _, d := range a.Diseases {
		if d.Result.Detected() {
			diseaseCP[d.Disease] = d.Result.ChangePoint
		}
	}
	medicineCP := make(map[mic.MedicineID]int)
	for _, d := range a.Medicines {
		if d.Result.Detected() {
			medicineCP[d.Medicine] = d.Result.ChangePoint
		}
	}
	out := make(map[mic.Pair]Cause)
	for _, det := range a.Prescriptions {
		pair := mic.Pair{Disease: det.Disease, Medicine: det.Medicine}
		if !det.Result.Detected() {
			out[pair] = CauseNone
			continue
		}
		cp := det.Result.ChangePoint
		if dcp, ok := diseaseCP[det.Disease]; ok && abs(dcp-cp) <= tolerance {
			out[pair] = CauseDisease
			continue
		}
		if mcp, ok := medicineCP[det.Medicine]; ok && abs(mcp-cp) <= tolerance {
			out[pair] = CauseMedicine
			continue
		}
		out[pair] = CausePrescription
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
