// Package mictrend benchmarks regenerate every table and figure of the
// paper's evaluation section (via the internal/experiments harness) and
// exercise the numerical kernels. One benchmark per table and figure; run
// with:
//
//	go test -bench=. -benchmem
//
// The first iteration of each macro benchmark builds its shared environment
// lazily, so wall-clock per op reflects the experiment itself.
package mictrend

import (
	"bytes"
	"context"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"mictrend/internal/changepoint"
	"mictrend/internal/experiments"
	"mictrend/internal/kalman"
	"mictrend/internal/medmodel"
	"mictrend/internal/mic"
	"mictrend/internal/micgen"
	"mictrend/internal/obs"
	"mictrend/internal/serve"
	"mictrend/internal/ssm"
	"mictrend/internal/trend"
)

// benchConfig is a trimmed experiment configuration so the full table/figure
// suite completes in minutes.
func benchConfig() experiments.Config {
	cfg := experiments.SmallConfig()
	cfg.RecordsPerMonth = 500
	cfg.MaxSeriesPerKind = 8
	cfg.TopKDiseases = 10
	return cfg
}

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

func sharedBenchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.NewEnv(benchConfig())
		if benchEnvErr != nil {
			return
		}
		// Warm the lazily fitted models so benchmarks measure the
		// experiment, not shared setup.
		_, _, benchEnvErr = benchEnv.Series()
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// BenchmarkTableII reproduces Table II: per-hospital-class antibiotic
// prescription rankings.
func BenchmarkTableII(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTableII(env, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII reproduces Table III: perplexity and relevance of the
// three medication models.
func BenchmarkTableIII(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTableIII(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIV reproduces Table IV: the AIC ablation (LL, LL+S, LL+I,
// LL+S+I, ARIMA) over sampled series.
func BenchmarkTableIV(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTableIV(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableV reproduces Table V: exact vs approximate search cost.
func BenchmarkTableV(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTableV(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableVI reproduces Table VI: exact/approximate change point
// consistency.
func BenchmarkTableVI(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTableVI(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 reproduces Fig. 2: cooccurrence vs proposed prediction
// for hypertension.
func BenchmarkFigure2(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure2(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 reproduces Fig. 3: seasonality, release, and indication
// expansion series.
func BenchmarkFigure3(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure3(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 reproduces Fig. 5: the AIC-vs-change-point valley.
func BenchmarkFigure5(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure5(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 reproduces Fig. 6: the four disease/medicine case-study
// decompositions.
func BenchmarkFigure6(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure6(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7 reproduces Fig. 7: the prescription-level case studies.
func BenchmarkFigure7(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure7(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8 reproduces Fig. 8: geographical generic spread snapshots.
func BenchmarkFigure8(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure8(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9 reproduces Fig. 9: SSM vs ARIMA forecasting.
func BenchmarkFigure9(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure9(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensions runs the §IX future-work ablations (multiple change
// points, temporally smoothed EM).
func BenchmarkExtensions(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExtensions(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkRecovery evaluates both models' reproductions against the
// generator's true links — the ground-truth check the paper could not run.
func BenchmarkLinkRecovery(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunLinkRecovery(env, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- kernel micro-benchmarks (ablation of the design choices) ---

// BenchmarkGenerateCorpus measures synthetic corpus generation throughput.
func BenchmarkGenerateCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := micgen.Generate(micgen.Config{
			Seed: uint64(i + 1), Months: 12, RecordsPerMonth: 500,
			BulkDiseases: 8, BulkMedicines: 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKalmanLogLik measures one likelihood evaluation of the seasonal
// structural model on a 43-month series — the unit the Nelder-Mead objective
// pays hundreds of times per fit. The workspace sub-benchmark is the
// allocation-free workspace kernel (0 allocs/op once its buffers exist); the
// filter sub-benchmark runs the same model through Filter, the same kernel
// plus the per-step A/P/K/L history the smoother needs; the
// nonseasonal sub-benchmark is one
// evaluation of the 43-month level plus slope-shift model (two states,
// T = I), which runs on the small-state path.
func BenchmarkKalmanLogLik(b *testing.B) {
	y := syntheticBreakSeries(43, 20)
	fit, err := ssm.FitConfig(y, ssm.Config{Seasonal: true, ChangePoint: 20})
	if err != nil {
		b.Fatal(err)
	}
	m, scaled := fit.Model, fit.Scaled

	b.Run("workspace", func(b *testing.B) {
		ws := kalman.NewWorkspace()
		if _, err := m.LogLikFilter(scaled, ws); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.LogLikFilter(scaled, ws); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("filter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Filter(scaled); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nonseasonal", func(b *testing.B) {
		nfit, err := ssm.FitConfig(y, ssm.Config{Seasonal: false, ChangePoint: 20})
		if err != nil {
			b.Fatal(err)
		}
		nm, nscaled := nfit.Model, nfit.Scaled
		ws := kalman.NewWorkspace()
		if _, err := nm.LogLikFilter(nscaled, ws); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := nm.LogLikFilter(nscaled, ws); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExactScan measures Algorithm 1 with the seasonal model on a
// 43-month series: the full exact change point scan whose per-candidate
// fits dominate the paper's Table V cost model.
func BenchmarkExactScan(b *testing.B) {
	y := syntheticBreakSeries(43, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := changepoint.DetectExact(y, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBinaryScan measures Algorithm 2 with the seasonal model on the
// same 43-month series as BenchmarkExactScan — the paper's Table V cost
// comparison at benchmark level (O(log T) memoized fits vs O(T)).
func BenchmarkBinaryScan(b *testing.B) {
	y := syntheticBreakSeries(43, 20)
	b.ReportAllocs()
	b.ResetTimer()
	var fits int
	for i := 0; i < b.N; i++ {
		res, err := changepoint.DetectBinary(y, true)
		if err != nil {
			b.Fatal(err)
		}
		fits = res.Fits
	}
	b.ReportMetric(float64(fits), "fits")
}

// BenchmarkExactScanPrefix measures the prefix-checkpointed exact scan at one
// worker on the BenchmarkExactScan series: shared-parameter AIC ladders
// scored by checkpoint resumes screen the candidate set down to a handful of
// contender fits, with selection byte-identical to BenchmarkExactScan's. The
// fits metric is the scan's whole fit budget per series.
func BenchmarkExactScanPrefix(b *testing.B) { benchExactScanPrefix(b, true) }

// BenchmarkExactScanPrefixNonSeasonal is BenchmarkExactScanPrefix with the
// non-seasonal model, whose every likelihood evaluation runs on the
// small-state Kalman path.
func BenchmarkExactScanPrefixNonSeasonal(b *testing.B) { benchExactScanPrefix(b, false) }

func benchExactScanPrefix(b *testing.B, seasonal bool) {
	y := syntheticBreakSeries(43, 20)
	b.ReportAllocs()
	b.ResetTimer()
	var fits int
	for i := 0; i < b.N; i++ {
		res, err := changepoint.DetectExactPrefix(y, seasonal, changepoint.PrefixOptions{
			Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		fits = res.Fits
	}
	b.ReportMetric(float64(fits), "fits")
}

// BenchmarkSurveil measures hierarchical surveillance end to end on the
// standard scenario corpus: model and reproduce stages, class/group
// roll-up, the aggregate change point scans, drill-down attribution, and
// offset-pair detection. The aggregate set stays ~20 nodes however many
// leaf series the corpus holds — the cost contrast against the flat detect
// stage is the point (see EXPERIMENTS.md).
func BenchmarkSurveil(b *testing.B) {
	ds, truth, err := micgen.Generate(micgen.Config{
		Seed: 42, Months: 30, RecordsPerMonth: 800, BulkDiseases: 6, BulkMedicines: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	c := truth.Catalog
	h := NewClassHierarchy(ds, c.MedicineClasses(), c.ClassGroupCodes(), c.DiseaseGroups())
	opts := DefaultAnalysisOptions()
	opts.Seasonal = false
	opts.MinSeriesTotal = 100
	b.ReportAllocs()
	b.ResetTimer()
	var fits, nodes int
	for i := 0; i < b.N; i++ {
		surv, err := Surveil(context.Background(), ds, SurveilOptions{Hierarchy: h, Pipeline: opts})
		if err != nil {
			b.Fatal(err)
		}
		fits = surv.AggregateFits + surv.DrillFits
		nodes = len(surv.Nodes)
	}
	b.ReportMetric(float64(fits), "fits")
	b.ReportMetric(float64(nodes), "nodes")
}

// BenchmarkEMFit measures one month's medication model EM fit.
func BenchmarkEMFit(b *testing.B) {
	ds, _, err := micgen.Generate(micgen.Config{
		Seed: 1, Months: 1, RecordsPerMonth: 1000, BulkDiseases: 8, BulkMedicines: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := medmodel.Fit(ds.Months[0], ds.Medicines.Len(), medmodel.FitOptions{MaxIter: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSMFitSeasonal measures one maximum-likelihood fit of the full
// structural model on a 43-month series, the unit cost C_KF·optimizer of
// §V-B.
func BenchmarkSSMFitSeasonal(b *testing.B) {
	y := syntheticBreakSeries(43, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ssm.FitConfig(y, ssm.Config{Seasonal: true, ChangePoint: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectExact measures Algorithm 1 on one series (O(T) fits).
func BenchmarkDetectExact(b *testing.B) {
	y := syntheticBreakSeries(43, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := changepoint.DetectExact(y, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectBinary measures Algorithm 2 on the same series (O(log T)
// fits) — the paper's headline efficiency result.
func BenchmarkDetectBinary(b *testing.B) {
	y := syntheticBreakSeries(43, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := changepoint.DetectBinary(y, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectMultiple measures the §IX greedy multiple-change-point
// search on a two-break series.
func BenchmarkDetectMultiple(b *testing.B) {
	y := syntheticBreakSeries(43, 20)
	// Add a second, later break.
	for t := 32; t < len(y); t++ {
		y[t] += 2 * float64(t-31)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := changepoint.DetectMultiple(y, changepoint.MultiOptions{MaxChanges: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMFitSmoothed measures the MAP-EM variant against BenchmarkEMFit:
// the cost of chaining the temporal prior.
func BenchmarkEMFitSmoothed(b *testing.B) {
	ds, _, err := micgen.Generate(micgen.Config{
		Seed: 1, Months: 2, RecordsPerMonth: 1000, BulkDiseases: 8, BulkMedicines: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	prior, err := medmodel.Fit(ds.Months[0], ds.Medicines.Len(), medmodel.FitOptions{MaxIter: 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := medmodel.FitSmoothed(ds.Months[1], ds.Medicines.Len(), medmodel.FitOptions{MaxIter: 20}, prior, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReproduce measures time-series reproduction (Eq. 7). "small"
// reproduces a 12-month corpus serially; "batch-records" has the shape of
// the batch-records benchmark workload — 43 months of 18.6k records over the
// scenario catalog, filtered and fitted as the pipeline does — reproduced on
// a GOMAXPROCS worker pool.
func BenchmarkReproduce(b *testing.B) {
	b.Run("small", func(b *testing.B) {
		ds, _, err := micgen.Generate(micgen.Config{
			Seed: 2, Months: 12, RecordsPerMonth: 500, BulkDiseases: 8, BulkMedicines: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchReproduce(b, ds, 1)
	})
	b.Run("batch-records", func(b *testing.B) {
		ds, _, err := micgen.Generate(micgen.Config{
			Seed: 1, Months: 43, RecordsPerMonth: 18600, Catalog: micgen.NewCatalog(43, 0, 0, nil),
		})
		if err != nil {
			b.Fatal(err)
		}
		benchReproduce(b, mic.FilterDataset(ds, mic.DefaultFilterOptions()), 0)
	})
}

// benchReproduce fits ds's months and times ReproduceParallel over them.
func benchReproduce(b *testing.B, ds *mic.Dataset, workers int) {
	models, fails, err := medmodel.FitAll(context.Background(), ds, medmodel.FitOptions{MaxIter: 10})
	if err != nil {
		b.Fatal(err)
	}
	if len(fails) > 0 {
		b.Fatal(fails[0].Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := medmodel.ReproduceParallel(ds, models, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecRoundTrip measures dataset serialization + parsing.
func BenchmarkCodecRoundTrip(b *testing.B) {
	ds, _, err := micgen.Generate(micgen.Config{
		Seed: 3, Months: 6, RecordsPerMonth: 500, BulkDiseases: 8, BulkMedicines: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := mic.Write(&buf, ds); err != nil {
			b.Fatal(err)
		}
		if _, err := mic.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// syntheticBreakSeries builds a deterministic series with a slope shift.
func syntheticBreakSeries(n, cp int) []float64 {
	rng := rand.New(rand.NewPCG(11, 13))
	y := make([]float64, n)
	level := 20.0
	for t := range y {
		level += rng.NormFloat64() * 0.2
		y[t] = level + 1.5*ssm.InterventionRegressor(cp, t) + rng.NormFloat64()
	}
	return y
}

// BenchmarkObsNil measures the disabled observability fast path: the nil
// metric handles instrumented code holds when no Registry is configured.
// This is the per-event cost every hot loop pays when observability is off —
// it must stay at 0 allocs/op (asserted by the CI benchmark smoke).
func BenchmarkObsNil(b *testing.B) {
	var r *obs.Registry
	c := r.Counter("bench")
	g := r.Gauge("bench")
	h := r.Histogram("bench", 1, 5, 20)
	tm := r.Timer("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(2)
		c.Inc()
		g.Set(int64(i))
		h.Observe(float64(i % 7))
		tm.Observe(0)
	}
}

// BenchmarkObsNilTrace measures the disabled span-tracing fast path: the nil
// *Tracer traced code holds when no trace sink is configured. Like
// BenchmarkObsNil it must stay at 0 allocs/op (asserted by the CI benchmark
// smoke).
func BenchmarkObsNilTrace(b *testing.B) {
	var tr *obs.Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Observe(obs.SpanEvent{Name: "bench", Month: i})
		_ = tr.Len()
	}
}

// BenchmarkObsNilLog measures the disabled structured-logging fast path: the
// nil *Logger instrumented code holds when no log sink is configured. Bare
// (attr-free) calls must stay at 0 allocs/op (asserted by the CI benchmark
// smoke); attr-carrying calls on allocation-sensitive paths guard with
// Enabled() instead, because building a non-empty variadic attr list costs at
// the call site whether or not the receiver is nil.
func BenchmarkObsNilLog(b *testing.B) {
	var l *obs.Logger
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Debug("bench")
		l.Info("bench")
		l.Warn("bench")
		l.Error("bench")
		if l.Enabled() {
			b.Fatal("nil logger reported enabled")
		}
	}
}

// BenchmarkHTTPOverhead measures the serving middleware's per-request cost
// against a bare handler: request-id generation and echo, route
// normalization, the labeled request counter and latency histogram, and the
// in-flight gauge. Access logging is off, as in a metrics-only deployment;
// baselines live in BENCH.json.
func BenchmarkHTTPOverhead(b *testing.B) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	run := func(b *testing.B, h http.Handler) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/epoch", nil))
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, handler) })
	b.Run("instrumented", func(b *testing.B) {
		run(b, serve.Instrument(handler, serve.InstrumentOptions{Metrics: obs.NewRegistry()}))
	})
}

// benchAnalyzeCorpus is the shared small corpus for the pipeline-overhead
// benchmarks below.
func benchAnalyzeCorpus(b *testing.B) *mic.Dataset {
	b.Helper()
	ds, _, err := micgen.Generate(micgen.Config{
		Seed: 5, Months: 18, RecordsPerMonth: 400, BulkDiseases: 5, BulkMedicines: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func benchAnalyzeOptions() trend.Options {
	opts := trend.DefaultOptions()
	opts.Method = trend.MethodBinary
	opts.Seasonal = false
	opts.MinSeriesTotal = 300
	return opts
}

// BenchmarkAnalyze is the untraced pipeline baseline for
// BenchmarkAnalyzeTraced: same corpus and options, no observability
// configured.
func BenchmarkAnalyze(b *testing.B) {
	ds := benchAnalyzeCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trend.Analyze(context.Background(), ds, benchAnalyzeOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeTraced runs the same pipeline with a live Tracer and
// Explain collection, pinning the full observability overhead (span
// collection, provenance ladders, convergence traces) against
// BenchmarkAnalyze. Baselines live in BENCH.json.
func BenchmarkAnalyzeTraced(b *testing.B) {
	ds := benchAnalyzeCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracer := obs.NewTracer()
		opts := benchAnalyzeOptions()
		opts.Trace = tracer.Observe
		opts.Explain = true
		a, err := trend.Analyze(context.Background(), ds, opts)
		if err != nil {
			b.Fatal(err)
		}
		if tracer.Len() == 0 || len(a.SeriesProvenance) == 0 {
			b.Fatal("traced run collected nothing")
		}
	}
}
