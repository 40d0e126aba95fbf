package mictrend

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
)

// obsTestSeries is a deterministic slope-shift series for the equivalence
// tests.
func obsTestSeries(n, cp int) []float64 {
	y := make([]float64, n)
	for i := range y {
		y[i] = 10
		if i >= cp {
			y[i] += float64(i - cp + 1)
		}
	}
	return y
}

// obsTestCorpus is the shared small corpus for the pipeline observer tests.
func obsTestCorpus(t *testing.T) *Dataset {
	t.Helper()
	corpus, _, err := GenerateCorpus(GeneratorConfig{
		Seed: 5, Months: 20, RecordsPerMonth: 150, BulkDiseases: 4, BulkMedicines: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// obsTestAnalysisOptions is the shared fast pipeline configuration.
func obsTestAnalysisOptions() AnalysisOptions {
	opts := DefaultAnalysisOptions()
	opts.Seasonal = false
	opts.MinSeriesTotal = 100
	opts.EM.MaxIter = 5
	return opts
}

// TestDetectChangePointEquivalence pins the consolidation contract: every
// deprecated entry point and its DetectChangePoint replacement return
// byte-identical results.
func TestDetectChangePointEquivalence(t *testing.T) {
	y := obsTestSeries(40, 25)
	ctx := context.Background()

	exactOld, err1 := DetectChangePointExact(y, false)
	exactNew, err2 := DetectChangePoint(ctx, y, DetectOptions{Method: SearchExact})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if exactOld != exactNew {
		t.Fatalf("exact: %+v != %+v", exactOld, exactNew)
	}
	if !exactNew.Detected() {
		t.Fatal("obvious break missed")
	}

	binOld, err1 := DetectChangePointBinary(y, true)
	binNew, err2 := DetectChangePoint(ctx, y, DetectOptions{Method: SearchBinary, Seasonal: true})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if binOld != binNew {
		t.Fatalf("binary: %+v != %+v", binOld, binNew)
	}

	for _, workers := range []int{1, 4} {
		parOld, err1 := DetectChangePointExactParallel(y, false, workers)
		parNew, err2 := DetectChangePoint(ctx, y, DetectOptions{Method: SearchExactParallel, Workers: workers})
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if parOld != parNew {
			t.Fatalf("parallel/%d: %+v != %+v", workers, parOld, parNew)
		}
		// The parallel scan must also select the serial scan's change point.
		if parNew.ChangePoint != exactNew.ChangePoint {
			t.Fatalf("parallel/%d selected %d, exact selected %d",
				workers, parNew.ChangePoint, exactNew.ChangePoint)
		}

		// The prefix-checkpointed scan must reproduce the serial selection
		// and AICs byte for byte at any worker count.
		prefNew, err := DetectChangePoint(ctx, y, DetectOptions{Method: SearchExactPrefix, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if prefNew.ChangePoint != exactNew.ChangePoint || prefNew.AIC != exactNew.AIC ||
			prefNew.NoChangeAIC != exactNew.NoChangeAIC {
			t.Fatalf("prefix/%d: %+v != exact %+v", workers, prefNew, exactNew)
		}
	}
}

// TestSmoothedFitEquivalence pins the PriorWeight consolidation: the
// deprecated FitMedicationModelsSmoothed and EMOptions.PriorWeight produce
// identical model chains.
func TestSmoothedFitEquivalence(t *testing.T) {
	corpus := obsTestCorpus(t)
	const w = 5.0
	old, err := FitMedicationModelsSmoothed(corpus, EMOptions{MaxIter: 5}, w)
	if err != nil {
		t.Fatal(err)
	}
	via, err := FitMedicationModels(corpus, EMOptions{MaxIter: 5, PriorWeight: w})
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != len(via) {
		t.Fatalf("model count: %d != %d", len(old), len(via))
	}
	// The EM accumulators iterate Go maps, so float rounding varies run to
	// run even on one code path; compare up to summation-order noise.
	const tol = 1e-9
	for i := range old {
		if !approxEq(old[i].LogLik, via[i].LogLik, tol) || old[i].Iterations != via[i].Iterations {
			t.Fatalf("month %d diverged: loglik %v/%v iters %d/%d",
				i, old[i].LogLik, via[i].LogLik, old[i].Iterations, via[i].Iterations)
		}
		if len(old[i].Phi) != len(via[i].Phi) {
			t.Fatalf("month %d Phi support diverged", i)
		}
		for d, row := range old[i].Phi {
			vrow := via[i].Phi[d]
			if len(row) != len(vrow) {
				t.Fatalf("month %d disease %d Phi row diverged", i, d)
			}
			for med, p := range row {
				if !approxEq(p, vrow[med], tol) {
					t.Fatalf("month %d phi[%d][%d]: %v != %v", i, d, med, p, vrow[med])
				}
			}
		}
	}
}

// approxEq reports whether a and b agree up to relative tolerance tol.
func approxEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*math.Max(scale, 1)
}

// eventRecorder collects events with Durations stripped, so sequences are
// comparable across runs.
type eventRecorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *eventRecorder) observe(e Event) {
	e.Duration = 0
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *eventRecorder) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// TestObserverSerialEquivalentOrder pins the event-order contract: the event
// stream (minus wall-clock durations) is identical for any worker split.
func TestObserverSerialEquivalentOrder(t *testing.T) {
	corpus := obsTestCorpus(t)
	run := func(workers, scanWorkers int) []Event {
		rec := &eventRecorder{}
		opts := obsTestAnalysisOptions()
		opts.Workers = workers
		opts.ScanWorkers = scanWorkers
		opts.Observer = rec.observe
		if _, err := AnalyzeTrendsContext(context.Background(), corpus, opts); err != nil {
			t.Fatal(err)
		}
		return rec.snapshot()
	}
	serial := run(1, 1)
	if len(serial) == 0 {
		t.Fatal("no events delivered")
	}
	// The serial stream must interleave stage brackets with per-unit events
	// in pipeline order.
	if serial[0].Kind != EventStageStart || serial[0].Stage != "model" {
		t.Fatalf("stream opens with %v, want stage-start model", serial[0])
	}
	last := serial[len(serial)-1]
	if last.Kind != EventStageEnd || last.Stage != "detect" {
		t.Fatalf("stream closes with %v, want stage-end detect", last)
	}
	for _, cfg := range [][2]int{{4, 1}, {4, 2}, {2, 0}} {
		got := run(cfg[0], cfg[1])
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("event stream for workers=%d scan-workers=%d diverged from serial (%d vs %d events)",
				cfg[0], cfg[1], len(got), len(serial))
		}
	}
}

// TestObserverPanicIsolated pins the panic contract: a panicking Observer is
// muted and recorded as a StageObserver failure, and the analysis itself is
// unaffected.
func TestObserverPanicIsolated(t *testing.T) {
	corpus := obsTestCorpus(t)
	baseline, err := AnalyzeTrendsContext(context.Background(), corpus, obsTestAnalysisOptions())
	if err != nil {
		t.Fatal(err)
	}

	calls := 0
	opts := obsTestAnalysisOptions()
	opts.Workers = 3
	opts.Observer = func(Event) {
		calls++
		panic("observer boom")
	}
	analysis, err := AnalyzeTrendsContext(context.Background(), corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("observer called %d times after panicking, want exactly 1", calls)
	}
	var recorded bool
	for _, f := range analysis.Failures {
		if f.Stage == StageObserver {
			if !f.Panicked {
				t.Fatal("observer failure not marked as panic")
			}
			recorded = true
		}
	}
	if !recorded {
		t.Fatalf("no StageObserver failure recorded in %v", analysis.Failures)
	}
	// Results unaffected by the broken observer.
	if !reflect.DeepEqual(baseline.Diseases, analysis.Diseases) ||
		!reflect.DeepEqual(baseline.Prescriptions, analysis.Prescriptions) {
		t.Fatal("detections changed under a panicking observer")
	}
	if baseline.TotalFits != analysis.TotalFits {
		t.Fatalf("TotalFits changed: %d != %d", baseline.TotalFits, analysis.TotalFits)
	}
}

// TestObserverCancelledContextStopsDelivery pins the cancellation contract:
// once ctx is cancelled no further events are delivered, and Analyze returns
// ctx's error.
func TestObserverCancelledContextStopsDelivery(t *testing.T) {
	corpus := obsTestCorpus(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const stopAfter = 3
	var mu sync.Mutex
	count := 0
	afterCancel := 0
	opts := obsTestAnalysisOptions()
	opts.Workers = 4
	opts.Observer = func(Event) {
		mu.Lock()
		defer mu.Unlock()
		count++
		if count == stopAfter {
			cancel()
			return
		}
		if count > stopAfter {
			afterCancel++
		}
	}
	_, err := AnalyzeTrendsContext(ctx, corpus, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got error %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if afterCancel != 0 {
		t.Fatalf("%d events delivered after cancellation", afterCancel)
	}
	if count != stopAfter {
		t.Fatalf("observer saw %d events, want exactly %d", count, stopAfter)
	}
}

// TestMetricsDeterministicAcrossWorkers pins the snapshot contract: the
// deterministic sections (counters, gauges, histograms) are identical for
// any Workers/ScanWorkers split; only timings vary.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	corpus := obsTestCorpus(t)
	run := func(workers, scanWorkers int) MetricsSnapshot {
		metrics := NewMetrics()
		opts := obsTestAnalysisOptions()
		opts.Workers = workers
		opts.ScanWorkers = scanWorkers
		opts.Metrics = metrics
		if _, err := AnalyzeTrendsContext(context.Background(), corpus, opts); err != nil {
			t.Fatal(err)
		}
		return metrics.Snapshot().Deterministic()
	}
	base := run(1, 1)
	if len(base.Counters) == 0 {
		t.Fatal("no counters collected")
	}
	for _, name := range []string{
		"em/months_fitted", "em/iterations", "scan/series", "scan/fits",
		"scan/candidates", "ssm/lik_evals", "ssm/starts",
		"scan/prefix_resumes",
	} {
		if base.Counters[name] <= 0 {
			t.Errorf("counter %q is %d, want > 0", name, base.Counters[name])
		}
	}
	if base.Counters["scan/fits"] != base.Counters["scan/total_fits"] {
		t.Errorf("scan/fits %d != scan/total_fits %d",
			base.Counters["scan/fits"], base.Counters["scan/total_fits"])
	}
	for _, cfg := range [][2]int{{4, 1}, {4, 2}, {2, 0}} {
		got := run(cfg[0], cfg[1])
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("deterministic snapshot for workers=%d scan-workers=%d diverged", cfg[0], cfg[1])
		}
	}
}
