// Package mictrend is the public API of the prescription trend analysis
// library, a from-scratch Go implementation of "A Prescription Trend
// Analysis using Medical Insurance Claim Big Data" (ICDE 2019).
//
// The package re-exports the stable surface of the internal implementation:
//
//   - the MIC data model (Dataset, Record, vocabularies, JSONL codec),
//   - the synthetic corpus generator with ground truth,
//   - the latent-variable medication model (EM) with baselines and
//     time-series reproduction,
//   - the structural state space model with AIC change point search
//     (exact, binary, and greedy multi-change-point),
//   - the end-to-end trend analysis pipeline with change-cause
//     classification plus the geographic-spread and hospital-gap
//     applications,
//   - hierarchical surveillance (Surveil): roll series up an ATC-like class
//     hierarchy, detect change points on the aggregates, attribute each
//     break down to the members driving it, and flag offsetting
//     substitution pairs, and
//   - the observability layer: progress events, metrics, and failure
//     inspection for long pipeline runs.
//
// # Quick start
//
// The API is options-first: each entry point takes a context and one options
// struct whose zero value (or Default* constructor) is the paper's setup.
//
//	corpus, truth, _ := mictrend.GenerateCorpus(mictrend.GeneratorConfig{Months: 36, RecordsPerMonth: 1000})
//
//	opts := mictrend.DefaultAnalysisOptions()
//	opts.Method = mictrend.MethodExact // Algorithm 1; MethodBinary for the O(log T) search
//	analysis, err := mictrend.AnalyzeTrendsContext(ctx, corpus, opts)
//	if err != nil {
//		// Cancellation: analysis still holds everything completed so far.
//	}
//	for _, det := range mictrend.DetectedChangePoints(analysis.Prescriptions) {
//		// inspect det.Result.ChangePoint …
//	}
//	_ = truth
//
// The pipeline degrades instead of aborting: a month whose EM fit fails
// falls back to the cooccurrence model, and a series whose search fails
// loses only its own detection. Inspect what was skipped or downgraded:
//
//	for _, f := range analysis.Failures {
//		fmt.Println(f) // e.g. "detect prescription:3/7: … (after 4 starts)"
//	}
//
// # Observability
//
// Long runs report progress through an Observer and collect counters,
// histograms, and stage timers in a Metrics registry, both wired through
// AnalysisOptions:
//
//	metrics := mictrend.NewMetrics()
//	opts.Observer = func(e mictrend.Event) { log.Println(e) }
//	opts.Metrics = metrics
//	analysis, _ = mictrend.AnalyzeTrendsContext(ctx, corpus, opts)
//	_ = metrics.Snapshot().WriteJSON(os.Stdout)
//
// Event delivery is serialized, panic-isolated (a panicking Observer is
// muted and recorded as a StageObserver failure), and deterministic in
// order; the snapshot's counter/gauge/histogram sections are identical for
// any worker configuration. The registry also exposes its snapshot in
// Prometheus text format (Metrics.PrometheusHandler, Snapshot's
// WritePrometheus) and over expvar (Metrics.PublishExpvar).
//
// Deeper inspection is options-first too: a Tracer collects timed spans of
// every stage, month fit, series detection, and scan phase as a
// Perfetto-loadable Chrome trace, and Explain records why each change point
// was (or was not) selected. Events and spans are one stream: each progress
// event is derived from a span, and only spans keep flowing after ctx is
// cancelled, so an interrupted run still writes a valid partial trace:
//
//	tracer := mictrend.NewTracer()
//	opts.Trace = tracer.Observe
//	opts.Explain = true
//	analysis, _ = mictrend.AnalyzeTrendsContext(ctx, corpus, opts)
//	_ = tracer.WriteTrace(traceFile)                       // chrome://tracing
//	_ = mictrend.WriteExplain("explain", analysis,         // JSON artifacts
//		mictrend.BuildExplainManifest(opts, analysis))
//
// # Single-series change point detection
//
// Outside the pipeline, DetectChangePoint searches one series with the same
// options-first shape:
//
//	res, err := mictrend.DetectChangePoint(ctx, series, mictrend.DetectOptions{
//		Method:   mictrend.SearchExactPrefix,
//		Seasonal: true,
//	})
package mictrend

import (
	"context"
	"io"
	"log/slog"
	"net/http"

	"mictrend/internal/apps"
	"mictrend/internal/changepoint"
	"mictrend/internal/medmodel"
	"mictrend/internal/mic"
	"mictrend/internal/micgen"
	"mictrend/internal/obs"
	"mictrend/internal/serve"
	"mictrend/internal/ssm"
	"mictrend/internal/trend"
)

// --- observability ---

// Observability types.
type (
	// Event is one structured pipeline progress event.
	Event = obs.Event
	// EventKind identifies a progress event (stage start/end, month fitted,
	// series done).
	EventKind = obs.EventKind
	// Observer receives progress events; wire one through
	// AnalysisOptions.Observer or DetectOptions.Observer. Deliveries are
	// serialized, panic-isolated, stop on cancellation, and arrive in
	// serial-equivalent order for any worker count.
	Observer = obs.Observer
	// Metrics is a registry of named counters, gauges, histograms, and
	// timers; wire one through AnalysisOptions.Metrics.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a Metrics registry. Its
	// counter/gauge/histogram sections are deterministic for a given input
	// regardless of worker counts; Deterministic() strips the wall-clock
	// timings.
	MetricsSnapshot = obs.Snapshot
	// CounterVec is a counter family labeled by a fixed label-name list;
	// create one with Metrics.CounterVec.
	CounterVec = obs.CounterVec
	// GaugeVec is a labeled gauge family; create one with Metrics.GaugeVec.
	GaugeVec = obs.GaugeVec
	// HistogramVec is a labeled histogram family sharing one bucket layout;
	// create one with Metrics.HistogramVec.
	HistogramVec = obs.HistogramVec
	// Logger is the structured, leveled log handle the serving plane writes
	// through; the nil logger is silent and allocation-free.
	Logger = obs.Logger
	// ScanStats accumulates optimizer-level accounting (likelihood
	// evaluations, multi-start restarts, failures) across the fits of a
	// change point search; wire one through DetectOptions.Stats.
	ScanStats = ssm.FitStats
)

// Span tracing and decision provenance types.
type (
	// SpanEvent is one timed, categorized span of pipeline work.
	SpanEvent = obs.SpanEvent
	// SpanObserver receives spans; wire one through AnalysisOptions.Trace or
	// DetectOptions.Trace (usually a Tracer's Observe method). Span content
	// is deterministic for a given input; only timestamps vary.
	SpanObserver = obs.SpanObserver
	// Tracer collects spans and serializes them as Chrome Trace Event JSON
	// (WriteTrace), loadable in Perfetto or chrome://tracing.
	Tracer = obs.Tracer
	// ScanProvenance is one change point search's full decision record: the
	// AIC ladder over every evaluated candidate (with warm/cold/refit or
	// bisection-probe paths), the bisection trail for the binary search, and
	// the selected model's parameters.
	ScanProvenance = changepoint.Provenance
	// CandidateEval is one rung of a ScanProvenance AIC ladder.
	CandidateEval = changepoint.CandidateEval
	// BinaryStep is one bisection interval of the binary search's trail.
	BinaryStep = changepoint.BinaryStep
	// MonthProvenance records one month's EM convergence (per-iteration
	// log-likelihoods, fallback events) when AnalysisOptions.Explain is set.
	MonthProvenance = trend.MonthProvenance
	// SeriesProvenance records one series' detection decision — its
	// ScanProvenance or its failure link — when AnalysisOptions.Explain is
	// set.
	SeriesProvenance = trend.SeriesProvenance
	// ExplainManifest summarizes a run for the WriteExplain artifacts.
	ExplainManifest = trend.Manifest
)

// Trace lanes: the tid each span family renders under in a trace viewer.
const (
	LaneStage  = obs.LaneStage
	LaneEM     = obs.LaneEM
	LaneDetect = obs.LaneDetect
	LaneScan   = obs.LaneScan
	// LaneSSM is reserved for per-fit structural model spans.
	//
	// Deprecated: nothing emits on LaneSSM; the exact scan's fits are traced
	// on LaneScan.
	LaneSSM   = obs.LaneSSM
	LaneServe = obs.LaneServe
)

// NewTracer returns an empty span collector; pass its Observe method as
// AnalysisOptions.Trace and serialize with WriteTrace after the run.
func NewTracer() *Tracer { return obs.NewTracer() }

// GuardSpans wraps a span observer with panic isolation: the first panic
// mutes the observer for good (onPanic, if non-nil, is told). The pipeline
// already guards AnalysisOptions.Trace; use this when invoking an untrusted
// observer directly.
func GuardSpans(cb SpanObserver, onPanic func(r any)) SpanObserver {
	return obs.GuardSpans(cb, onPanic)
}

// BuildExplainManifest derives a run's manifest from its options and
// analysis; fill Version/Seed/Records/Interrupted before WriteExplain.
func BuildExplainManifest(opts AnalysisOptions, a *Analysis) ExplainManifest {
	return trend.BuildManifest(opts, a)
}

// WriteExplain writes a run's decision-provenance artifacts (manifest.json,
// months.json, series/<key>.json) under dir. Run the analysis with
// AnalysisOptions.Explain set first.
func WriteExplain(dir string, a *Analysis, man ExplainManifest) error {
	return trend.WriteExplain(dir, a, man)
}

// Progress event kinds.
const (
	// EventStageStart opens a pipeline stage ("model", "reproduce",
	// "detect", "scan").
	EventStageStart = obs.StageStart
	// EventStageEnd closes a stage, carrying its wall-clock duration.
	EventStageEnd = obs.StageEnd
	// EventMonthFitted reports one month's medication model fit.
	EventMonthFitted = obs.MonthFitted
	// EventSeriesDone reports one series' change point search.
	EventSeriesDone = obs.SeriesDone
)

// NewMetrics returns an empty metrics registry to pass as
// AnalysisOptions.Metrics. A nil registry (the default) costs nothing.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewTextLogger returns a Logger writing logfmt-style text records at or
// above level to w; wire it through ServingOptions.Log.
func NewTextLogger(w io.Writer, level slog.Level) *Logger {
	return obs.NewTextLogger(w, level)
}

// NewJSONLogger returns a Logger writing one JSON object per record at or
// above level to w.
func NewJSONLogger(w io.Writer, level slog.Level) *Logger {
	return obs.NewJSONLogger(w, level)
}

// --- MIC data model ---

// Core claim data types.
type (
	// Dataset is a multi-month MIC corpus.
	Dataset = mic.Dataset
	// Monthly is one month's record collection.
	Monthly = mic.Monthly
	// Record is a single claim: bags of diseases and medicines, no links.
	Record = mic.Record
	// DiseaseCount is one disease bag entry.
	DiseaseCount = mic.DiseaseCount
	// Hospital is per-institution metadata.
	Hospital = mic.Hospital
	// HospitalClass groups hospitals by bed count.
	HospitalClass = mic.HospitalClass
	// DiseaseID identifies a disease within a dataset vocabulary.
	DiseaseID = mic.DiseaseID
	// MedicineID identifies a medicine within a dataset vocabulary.
	MedicineID = mic.MedicineID
	// Pair identifies a disease–medicine pair.
	Pair = mic.Pair
)

// Hospital size classes (paper §VII-C).
const (
	SmallHospital  = mic.SmallHospital
	MediumHospital = mic.MediumHospital
	LargeHospital  = mic.LargeHospital
)

// NewDataset returns an empty dataset with fresh vocabularies.
func NewDataset() *Dataset { return mic.NewDataset() }

// Codec resilience types.
type (
	// CorpusReadOptions controls lenient vs. strict decoding of malformed
	// corpus lines.
	CorpusReadOptions = mic.ReadOptions
	// CorpusReadStats reports how many malformed lines a lenient read
	// skipped.
	CorpusReadStats = mic.ReadStats
)

// ReadCorpus reads a dataset written by WriteCorpus, skipping malformed
// record lines; use ReadCorpusStats to observe or forbid skips.
func ReadCorpus(r io.Reader) (*Dataset, error) { return mic.Read(r) }

// ReadCorpusStats reads a dataset with explicit lenient/strict handling of
// malformed record lines, reporting what was skipped.
func ReadCorpusStats(r io.Reader, opts CorpusReadOptions) (*Dataset, CorpusReadStats, error) {
	return mic.ReadWithStats(r, opts)
}

// WriteCorpus serializes a dataset as JSONL.
func WriteCorpus(w io.Writer, d *Dataset) error { return mic.Write(w, d) }

// ReadCorpusFile reads a dataset from a file, transparently decompressing
// ".gz" paths and skipping malformed record lines.
func ReadCorpusFile(path string) (*Dataset, error) { return mic.ReadFile(path) }

// ReadCorpusFileStats is ReadCorpusStats for files.
func ReadCorpusFileStats(path string, opts CorpusReadOptions) (*Dataset, CorpusReadStats, error) {
	return mic.ReadFileWithStats(path, opts)
}

// WriteCorpusFile writes a dataset to a file, gzip-compressing ".gz" paths.
func WriteCorpusFile(path string, d *Dataset) error { return mic.WriteFile(path, d) }

// --- columnar data plane ---

// Storage-backend types. The data plane has two interchangeable codecs —
// line-oriented JSONL and the MICC1 binary columnar format (see DESIGN.md) —
// selected by CorpusFormat; every reader sniffs the format from magic bytes,
// so callers rarely name a format explicitly.
type (
	// CorpusFormat identifies a corpus serialization (auto, JSONL, columnar).
	CorpusFormat = mic.Format
	// CorpusStorageOptions bundles codec tuning: lenient/strict JSONL reads,
	// columnar worker counts, and the columnar flate level.
	CorpusStorageOptions = mic.StorageOptions
	// CorpusStorage describes a serialization backend. The built-in JSONL
	// and columnar codecs do not implement it; CorpusFormat selects them.
	//
	// Deprecated: nothing implements or accepts a CorpusStorage, so a
	// codec of the caller's own cannot plug in through it. Select a codec
	// by CorpusFormat.
	CorpusStorage = mic.Storage
	// CorpusStreamMeta is the up-front dataset description a streaming
	// writer needs before months arrive (vocabularies, hospitals, months).
	CorpusStreamMeta = mic.StreamMeta
	// CorpusStreamWriter receives months in order and finalizes on Close,
	// so corpora of any size can be written without materializing them.
	CorpusStreamWriter = mic.StreamWriter
	// ColumnarWriterOptions tunes the MICC1 writer (block compression
	// workers, flate level). Output bytes are identical for every Workers
	// value.
	ColumnarWriterOptions = mic.ColumnarWriterOptions
	// ColumnarReadOptions tunes the MICC1 reader (decode workers, strict
	// vocabulary validation).
	ColumnarReadOptions = mic.ColumnarReadOptions
	// ColumnarCorpus is an open MICC1 file whose months decode
	// independently on demand.
	ColumnarCorpus = mic.ColumnarFile
)

// Corpus formats.
const (
	CorpusFormatAuto     = mic.FormatAuto
	CorpusFormatJSONL    = mic.FormatJSONL
	CorpusFormatColumnar = mic.FormatColumnar
)

// ParseCorpusFormat parses "auto", "jsonl", or "columnar".
func ParseCorpusFormat(s string) (CorpusFormat, error) { return mic.ParseFormat(s) }

// SniffCorpusFile detects a corpus file's format from its magic bytes.
func SniffCorpusFile(path string) (CorpusFormat, error) { return mic.SniffFile(path) }

// ReadCorpusAuto reads a corpus from a stream in whatever format it is in —
// MICC1 columnar, JSONL, or gzipped JSONL — reporting the detected format.
func ReadCorpusAuto(r io.Reader, opts CorpusStorageOptions) (*Dataset, CorpusReadStats, CorpusFormat, error) {
	return mic.ReadAuto(r, opts)
}

// ReadCorpusFileAs reads a corpus file as the given format (CorpusFormatAuto
// sniffs magic bytes), reporting the format actually decoded.
func ReadCorpusFileAs(path string, format CorpusFormat, opts CorpusStorageOptions) (*Dataset, CorpusReadStats, CorpusFormat, error) {
	return mic.ReadDatasetFile(path, format, opts)
}

// WriteCorpusFileAs writes a corpus file in the given format
// (CorpusFormatAuto picks by extension: ".micc" columnar, else JSONL with
// gzip for ".gz"), reporting the format written.
func WriteCorpusFileAs(path string, format CorpusFormat, d *Dataset, opts CorpusStorageOptions) (CorpusFormat, error) {
	return mic.WriteDatasetFile(path, format, d, opts)
}

// NewCorpusStreamWriter opens a month-at-a-time corpus writer at path in
// the given format; months passed to WriteMonth are persisted incrementally
// so the corpus never needs to fit in memory.
func NewCorpusStreamWriter(path string, format CorpusFormat, meta CorpusStreamMeta, opts CorpusStorageOptions) (CorpusStreamWriter, CorpusFormat, error) {
	return mic.NewStreamFileWriter(path, format, meta, opts)
}

// NewCorpusStreamMeta derives streaming metadata from an in-memory dataset.
func NewCorpusStreamMeta(d *Dataset) CorpusStreamMeta { return mic.NewStreamMeta(d) }

// OpenColumnarCorpus opens a MICC1 file for random-access month decoding
// without loading any record data.
func OpenColumnarCorpus(path string) (*ColumnarCorpus, error) { return mic.OpenColumnarFile(path) }

// ReadColumnarCorpusFile decodes an entire MICC1 file, fanning blocks out
// across a bounded worker pool; the result is identical for every worker
// count.
func ReadColumnarCorpusFile(path string, opts ColumnarReadOptions) (*Dataset, error) {
	return mic.ReadColumnarFile(path, opts)
}

// WriteColumnarCorpusFile encodes a dataset as a MICC1 file.
func WriteColumnarCorpusFile(path string, d *Dataset, opts ColumnarWriterOptions) error {
	return mic.WriteColumnarFile(path, d, opts)
}

// --- synthetic corpus generation ---

// Generator types.
type (
	// GeneratorConfig parameterizes synthetic corpus generation.
	GeneratorConfig = micgen.Config
	// Truth carries the generator's ground truth (true links, relevance,
	// injected structural events).
	Truth = micgen.Truth
	// TrueChange is one injected structural event.
	TrueChange = micgen.TrueChange
	// Catalog is the synthetic disease/medicine/city world description.
	Catalog = micgen.Catalog
)

// GenerateCorpus builds a synthetic MIC corpus plus its ground truth;
// deterministic in the config.
func GenerateCorpus(cfg GeneratorConfig) (*Dataset, *Truth, error) {
	return micgen.Generate(cfg)
}

// --- medication model (the paper's core contribution) ---

// Medication model types.
type (
	// MedicationModel is the fitted latent-variable model for one month.
	MedicationModel = medmodel.Model
	// EMOptions tunes the EM loop.
	EMOptions = medmodel.FitOptions
	// SeriesSet holds reproduced disease/medicine/prescription time series.
	SeriesSet = medmodel.SeriesSet
	// Cooccurrence is the paper's main baseline (Eq. 10).
	Cooccurrence = medmodel.Cooccurrence
	// Unigram is the paper's weaker baseline.
	Unigram = medmodel.Unigram
)

// FitMedicationModel fits the latent-variable model to one month by EM.
func FitMedicationModel(month *Monthly, vocabMedicines int, opts EMOptions) (*MedicationModel, error) {
	return medmodel.Fit(month, vocabMedicines, opts)
}

// MonthFitError describes one month whose EM fit failed or panicked.
type MonthFitError = medmodel.MonthError

// FitMedicationModels fits one model per month, failing fast on the first
// month that cannot be fitted. Use FitMedicationModelsContext for
// skip-and-report semantics and cancellation. Set EMOptions.PriorWeight to
// chain a Dirichlet prior across months (the smoothed variant).
func FitMedicationModels(d *Dataset, opts EMOptions) ([]*MedicationModel, error) {
	models, fails, err := FitMedicationModelsContext(context.Background(), d, opts)
	if err != nil {
		return nil, err
	}
	if len(fails) > 0 {
		return nil, fails[0].Err
	}
	return models, nil
}

// FitMedicationModelsContext fits one model per month under ctx. Months that
// fail (or panic) leave a nil model and a MonthFitError; the error return is
// reserved for cancellation, alongside the partial results.
func FitMedicationModelsContext(ctx context.Context, d *Dataset, opts EMOptions) ([]*MedicationModel, []MonthFitError, error) {
	return medmodel.FitAll(ctx, d, opts)
}

// FitMedicationModelsSmoothed chains a Dirichlet prior across months (the
// paper's §IX Dynamic Topic Model direction).
//
// Deprecated: set EMOptions.PriorWeight and call FitMedicationModels (or
// FitMedicationModelsContext for per-month degradation and cancellation).
func FitMedicationModelsSmoothed(d *Dataset, opts EMOptions, priorWeight float64) ([]*MedicationModel, error) {
	opts.PriorWeight = priorWeight
	return FitMedicationModels(d, opts)
}

// ReproduceSeries applies fitted models to their months and accumulates the
// prescription time series of the paper's Eqs. 7–8.
func ReproduceSeries(d *Dataset, models []*MedicationModel) (*SeriesSet, error) {
	return medmodel.Reproduce(d, models)
}

// ReproduceSeriesParallel is ReproduceSeries fanned out over workers
// month-wise (0 = GOMAXPROCS). The result is bit-identical to the serial
// reproduction for every worker count: each month accumulates locally in
// record order and the merge is pure placement.
func ReproduceSeriesParallel(d *Dataset, models []*MedicationModel, workers int) (*SeriesSet, error) {
	return medmodel.ReproduceParallel(d, models, workers)
}

// --- structural model and change point search ---

// Structural model types.
type (
	// StructuralConfig selects the state space model variant.
	StructuralConfig = ssm.Config
	// StructuralFit is a maximum-likelihood-fitted structural model.
	StructuralFit = ssm.Fit
	// Decomposition splits a fitted series into level/seasonal/
	// intervention/irregular components.
	Decomposition = ssm.Decomposition
	// Intervention is one structural change regressor.
	Intervention = ssm.Intervention
	// ChangePointResult is the outcome of a change point search.
	ChangePointResult = changepoint.Result
	// MultiChangePointResult is the outcome of the greedy multi-break
	// search.
	MultiChangePointResult = changepoint.MultiResult
	// MultiChangePointOptions configures the greedy multi-break search.
	MultiChangePointOptions = changepoint.MultiOptions
)

// NoChangePoint marks the absence of an intervention (t_CP = ∞).
const NoChangePoint = ssm.NoChangePoint

// FitStructuralModel fits the Eq. 9 model to a monthly series.
func FitStructuralModel(series []float64, cfg StructuralConfig) (*StructuralFit, error) {
	return ssm.FitConfig(series, cfg)
}

// DetectOptions configures DetectChangePoint: the search method, the model
// variant, worker count, and optional observability (DetectOptions.Stats,
// DetectOptions.Observer). The zero value runs the serial exact scan of a
// non-seasonal model.
type DetectOptions = changepoint.DetectOptions

// SearchMethod selects DetectChangePoint's algorithm.
type SearchMethod = changepoint.SearchMethod

// Change point search methods for DetectOptions.Method.
const (
	// SearchExact is the serial Algorithm 1 (O(T) fits).
	SearchExact = changepoint.SearchExact
	// SearchBinary is the approximate Algorithm 2 (O(log T) fits).
	SearchBinary = changepoint.SearchBinary
	// SearchExactParallel named the candidate-sharded warm scan, which the
	// prefix scan superseded; it now runs SearchExactPrefix.
	//
	// Deprecated: use SearchExactPrefix.
	SearchExactParallel = changepoint.SearchExactParallel
	// SearchExactPrefix is Algorithm 1 on the prefix-checkpointed evaluator:
	// shared-parameter AIC ladders scored by checkpoint resumes screen the
	// candidates down to a handful of real fits. Selection is byte-identical
	// to SearchExact for any worker count; the pipeline's exact method runs
	// it.
	SearchExactPrefix = changepoint.SearchExactPrefix
)

// DetectChangePoint runs the selected change point search on one series. It
// consolidates the deprecated DetectChangePointExact/Binary/ExactParallel
// entry points behind one options struct, producing byte-identical results
// to each; cancellation surfaces as ctx's error within one in-flight model
// fit.
func DetectChangePoint(ctx context.Context, series []float64, opts DetectOptions) (ChangePointResult, error) {
	return changepoint.Detect(ctx, series, opts)
}

// DetectChangePointExact runs the paper's Algorithm 1 (O(T) fits).
//
// Deprecated: use DetectChangePoint with DetectOptions{Method: SearchExact}.
func DetectChangePointExact(series []float64, seasonal bool) (ChangePointResult, error) {
	return DetectChangePoint(context.Background(), series, DetectOptions{Method: SearchExact, Seasonal: seasonal})
}

// DetectChangePointBinary runs the paper's Algorithm 2 (O(log T) fits).
//
// Deprecated: use DetectChangePoint with DetectOptions{Method: SearchBinary}.
func DetectChangePointBinary(series []float64, seasonal bool) (ChangePointResult, error) {
	return DetectChangePoint(context.Background(), series, DetectOptions{Method: SearchBinary, Seasonal: seasonal})
}

// DetectChangePointExactParallel runs Algorithm 1 on the prefix scan, with
// workers (≤0 = 1) bounding its concurrent contender fits. The
// candidate-sharded warm scan it once named is gone; the selection contract
// is unchanged.
//
// Deprecated: use DetectChangePoint with DetectOptions{Method:
// SearchExactPrefix, Workers: workers}.
func DetectChangePointExactParallel(series []float64, seasonal bool, workers int) (ChangePointResult, error) {
	return DetectChangePoint(context.Background(), series, DetectOptions{
		Method: SearchExactParallel, Seasonal: seasonal, Workers: workers,
	})
}

// DetectChangePoints runs the greedy multiple-change-point search (§IX
// extension).
func DetectChangePoints(series []float64, opts MultiChangePointOptions) (MultiChangePointResult, error) {
	return changepoint.DetectMultiple(series, opts)
}

// --- end-to-end pipeline and applications ---

// Pipeline types.
type (
	// AnalysisOptions configures the pipeline.
	AnalysisOptions = trend.Options
	// Analysis is the full pipeline output.
	Analysis = trend.Analysis
	// Detection is one series' change point search outcome.
	Detection = trend.Detection
	// Cause categorizes a prescription trend change.
	Cause = trend.Cause
	// Emerging is a detected upward trend with its projection.
	Emerging = trend.Emerging
	// AnalysisFailure records one series or month the pipeline degraded
	// around instead of aborting.
	AnalysisFailure = trend.Failure
	// FailureStage identifies the pipeline stage a failure occurred in.
	FailureStage = trend.FailureStage
	// DiseaseShare is one row of a medicine's disease ranking.
	DiseaseShare = apps.DiseaseShare
	// CityCounts maps city → medicine → estimated prescription count.
	CityCounts = apps.CityCounts
)

// Change causes (paper §III-B taxonomy).
const (
	CauseNone         = trend.CauseNone
	CauseDisease      = trend.CauseDisease
	CauseMedicine     = trend.CauseMedicine
	CausePrescription = trend.CausePrescription
)

// Change point search methods for AnalysisOptions.Method. These are the
// same constants as the Search* values; the pipeline runs MethodExact on the
// prefix scan under its worker budget.
const (
	// MethodExact is the paper's Algorithm 1.
	MethodExact = trend.MethodExact
	// MethodBinary is the paper's Algorithm 2.
	MethodBinary = trend.MethodBinary
	// MethodExactParallel behaves exactly like MethodExact within the
	// pipeline.
	//
	// Deprecated: use MethodExact.
	MethodExactParallel = changepoint.SearchExactParallel
)

// Series kinds.
const (
	KindDisease      = trend.KindDisease
	KindMedicine     = trend.KindMedicine
	KindPrescription = trend.KindPrescription
)

// Pipeline failure stages.
const (
	StageModel    = trend.StageModel
	StageValidate = trend.StageValidate
	StageDetect   = trend.StageDetect
	StageObserver = trend.StageObserver
)

// DefaultAnalysisOptions mirrors the paper's setup (seasonal model, exact
// search, §VI filters).
func DefaultAnalysisOptions() AnalysisOptions { return trend.DefaultOptions() }

// AnalyzeTrends runs the full two-stage pipeline. Per-series and per-month
// problems do not abort the run; they are recorded in Analysis.Failures.
func AnalyzeTrends(d *Dataset, opts AnalysisOptions) (*Analysis, error) {
	return AnalyzeTrendsContext(context.Background(), d, opts)
}

// AnalyzeTrendsContext is AnalyzeTrends under a context: cancellation stops
// the scan within one in-flight model fit and returns the partial analysis
// together with ctx's error.
func AnalyzeTrendsContext(ctx context.Context, d *Dataset, opts AnalysisOptions) (*Analysis, error) {
	return trend.Analyze(ctx, d, opts)
}

// ClassifyChanges attributes each detected prescription change to its cause.
func ClassifyChanges(a *Analysis, toleranceMonths int) map[Pair]Cause {
	return trend.ClassifyChanges(a, toleranceMonths)
}

// DetectedChangePoints filters detections to those with a change point,
// strongest first.
func DetectedChangePoints(dets []Detection) []Detection {
	return trend.DetectedChangePoints(dets)
}

// EmergingTrends projects detected upward trends forward (§IX "early signs"
// question).
func EmergingTrends(dets []Detection, seasonal bool, horizonMonths int) ([]Emerging, error) {
	return trend.EmergingTrends(dets, seasonal, horizonMonths)
}

// --- hierarchical surveillance ---

// Hierarchical surveillance types: detect high, attribute down. Surveil
// rolls the reproduced series up an ATC-like class hierarchy, scans the much
// smaller aggregate set for change points, attributes each aggregate break
// to the member series driving it, and flags offsetting substitution pairs
// that no aggregate-level scan can see.
type (
	// SeriesKey is the typed identity of one analyzed series — leaf
	// (disease, medicine, prescription pair) or aggregate (class, class
	// group, disease group). Its String form is the pipeline's stable
	// stringly key ("prescription:3/7", "class:B01").
	SeriesKey = trend.SeriesKey
	// SeriesKind identifies a series key's level.
	SeriesKind = trend.SeriesKind
	// ClassHierarchy maps leaf vocabulary ids into the class tree.
	ClassHierarchy = trend.Hierarchy
	// SurveilOptions configures Surveil: the hierarchy, the shared pipeline
	// options, attribution windows, and offset thresholds.
	SurveilOptions = trend.SurveilOptions
	// Surveillance is Surveil's output tree: aggregate nodes with their
	// scans and attributions, offset pairs, failures, and fit accounting.
	Surveillance = trend.Surveillance
	// SurveilNode is one aggregate series of the hierarchy.
	SurveilNode = trend.SurveilNode
	// SurveilAttribution is one child's contribution to a detected
	// aggregate break.
	SurveilAttribution = trend.Attribution
	// SurveilOffsetPair is a flagged offsetting substitution: a member's
	// decline absorbed by a sibling's rise, invisible at aggregate level.
	SurveilOffsetPair = trend.OffsetPair
	// AggregateEventTruth is a generator ground-truth event lifted to the
	// class level, for validating surveillance accuracy.
	AggregateEventTruth = micgen.AggregateEvent
	// OffsetPairTruth is a generator-planted offsetting substitution.
	OffsetPairTruth = micgen.OffsetTruth
)

// Aggregate series kinds (the leaf kinds are above).
const (
	KindMedicineClass = trend.KindMedicineClass
	KindMedicineGroup = trend.KindMedicineGroup
	KindDiseaseGroup  = trend.KindDiseaseGroup
)

// StageSurveil marks failures of the aggregate and drill-down surveillance
// scans.
const StageSurveil = trend.StageSurveil

// ParseSeriesKey parses a stringly series key ("medicine:9",
// "prescription:3/11", "class-group:B") back into its typed form.
func ParseSeriesKey(s string) (SeriesKey, error) { return trend.ParseSeriesKey(s) }

// NewClassHierarchy resolves a code-keyed hierarchy (such as the generator
// catalog's MedicineClasses/ClassGroupCodes/DiseaseGroups maps) against a
// dataset's vocabularies.
func NewClassHierarchy(d *Dataset, medicineClass, classGroup, diseaseGroup map[string]string) ClassHierarchy {
	return trend.HierarchyFromCodes(d, medicineClass, classGroup, diseaseGroup)
}

// Surveil runs hierarchical surveillance over a corpus: model and reproduce
// the series (or reuse SurveilOptions.Analysis), roll them up the hierarchy,
// scan the aggregates, attribute detected breaks down to members, and flag
// offsetting substitutions. It shares AnalyzeTrendsContext's contracts:
// options-first, deterministic for any Workers split, degrading
// per-node on failure, observable through the same Observer/Metrics/Trace
// hooks, and cancellable with partial results.
func Surveil(ctx context.Context, d *Dataset, opts SurveilOptions) (*Surveillance, error) {
	return trend.Surveil(ctx, d, opts)
}

// --- crash-safe incremental serving ---

// Serving and checkpointing types.
type (
	// Checkpointer persists per-month model-stage state so an interrupted or
	// incremental analysis resumes without refitting committed months; wire
	// one through AnalysisOptions.Checkpoint. CheckpointStore is the durable
	// implementation.
	Checkpointer = trend.Checkpointer
	// MonthCheckpoint is one month's persisted model-stage state: the fitted
	// model or its recorded degradation, guarded by a data hash.
	MonthCheckpoint = trend.MonthCheckpoint
	// CheckpointStore is the durable on-disk Checkpointer: each month commits
	// via write-tmp-fsync-rename plus a CRC-framed manifest WAL, and recovery
	// rolls a crashed store back to its last consistent prefix.
	CheckpointStore = serve.Store
	// RecoveryReport is the structured account of what opening a
	// CheckpointStore found, repaired, and discarded.
	RecoveryReport = serve.RecoveryReport
	// ServingCore is the crash-safe incremental serving engine: ingested
	// months fold through the checkpointed pipeline one at a time, and every
	// completed Analysis publishes as an immutable Epoch snapshot.
	ServingCore = serve.Core
	// ServingOptions configures NewServingCore.
	ServingOptions = serve.CoreOptions
	// ServingEpoch is one immutable published snapshot: readers always see
	// the last complete Analysis, never a partially folded month.
	ServingEpoch = serve.Epoch
	// ServeRetryPolicy is the bounded, jittered exponential backoff schedule
	// applied to transiently failed folds.
	ServeRetryPolicy = serve.RetryPolicy
	// ServingStatus is the /v1/status payload: readiness, epoch age, queue
	// pressure, last-fold cost, per-month lineage, and the recovery report.
	ServingStatus = serve.Status
	// MonthLineage is one ingested month's progress through the serving
	// plane's durable pipeline (queued → folding → checkpointed →
	// wal-committed → published, or failed).
	MonthLineage = serve.MonthLineage
	// InstrumentOptions configures the Instrument HTTP middleware.
	InstrumentOptions = serve.InstrumentOptions
)

// RequestIDHeader is the header Instrument reads and echoes for request
// correlation.
const RequestIDHeader = serve.RequestIDHeader

// Serving sentinel errors, mapped onto HTTP semantics by the serving handler
// (429, 503, 409).
var (
	ErrServeOverloaded    = serve.ErrOverloaded
	ErrServeClosing       = serve.ErrClosing
	ErrServeMonthConflict = serve.ErrMonthConflict
)

// OpenCheckpointStore opens (creating or crash-recovering) a durable
// checkpoint directory; assign the store to AnalysisOptions.Checkpoint to
// make repeated analyses over the same corpus resume instead of refit. The
// report says what recovery restored or discarded. metrics may be nil.
func OpenCheckpointStore(dir string, metrics *Metrics) (*CheckpointStore, *RecoveryReport, error) {
	return serve.Open(dir, metrics)
}

// NewServingCore opens the store under opts.Dir, recovers the committed
// corpus, and starts the fold loop; ServingCore.Ready flips once the first
// epoch publishes. Close drains gracefully.
func NewServingCore(opts ServingOptions) (*ServingCore, *RecoveryReport, error) {
	return serve.NewCore(opts)
}

// Instrument wraps an HTTP handler with the serving plane's RED metrics,
// request-id correlation, and structured access logging. With neither a
// metrics registry nor a logger configured it returns next unchanged.
func Instrument(next http.Handler, opts InstrumentOptions) http.Handler {
	return serve.Instrument(next, opts)
}

// ServeRequestID returns the correlated request id Instrument stashed in the
// request context ("" outside an instrumented handler).
func ServeRequestID(ctx context.Context) string {
	return serve.RequestID(ctx)
}

// HashCheckpointMonth fingerprints one filtered month plus the fit options
// that shape its model — the guard MonthCheckpoint.DataHash carries.
func HashCheckpointMonth(month *Monthly, em EMOptions) uint64 {
	return trend.HashMonth(month, em)
}

// TopDiseasesForMedicine ranks the diseases a medicine is prescribed for
// (paper Table II).
func TopDiseasesForMedicine(d *Dataset, med MedicineID, k int, opts EMOptions) ([]DiseaseShare, error) {
	return apps.TopDiseasesForMedicine(d, med, k, opts)
}

// PrescriptionGapByClass runs the Table II ranking per hospital size class.
func PrescriptionGapByClass(d *Dataset, med MedicineID, k int, opts EMOptions) (map[HospitalClass][]DiseaseShare, error) {
	return apps.PrescriptionGapByClass(d, med, k, opts)
}

// PairCountsByCity estimates per-city prescription counts of medicines for a
// disease at one month (paper Fig. 8).
func PairCountsByCity(d *Dataset, disease DiseaseID, meds []MedicineID, month int, opts EMOptions) (CityCounts, error) {
	return apps.PairCountsByCity(d, disease, meds, month, opts)
}
