package mictrend

// Allocation guards for the observability layer. The obs package's contract
// is that disabled instrumentation is free: nil metric handles no-op without
// allocating, the Kalman workspace kernel stays allocation-free with stats
// threading present in the tree, and enabling FitStats collection adds only
// a constant handful of allocations per fit (never per likelihood
// evaluation). These tests pin those properties so a future instrumentation
// change cannot silently put allocations on the hot path.

import (
	"context"
	"runtime"
	"testing"

	"mictrend/internal/changepoint"
	"mictrend/internal/kalman"
	"mictrend/internal/medmodel"
	"mictrend/internal/mic"
	"mictrend/internal/micgen"
	"mictrend/internal/obs"
	"mictrend/internal/ssm"
	"mictrend/internal/trend"
)

// TestInstrumentationAllocFree pins the zero-cost-when-disabled contract.
func TestInstrumentationAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}

	// Nil metric handles — what instrumented code holds when no Registry is
	// configured — must not allocate.
	var r *obs.Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", 1, 2)
	tm := r.Timer("x")
	if n := testing.AllocsPerRun(100, func() {
		c.Add(3)
		c.Inc()
		g.Set(7)
		h.Observe(1.5)
		tm.Observe(0)
		_ = c.Value()
		_ = g.Value()
	}); n != 0 {
		t.Errorf("nil metric handles allocate %.0f/op, want 0", n)
	}

	// Nil labeled-vector handles — what the HTTP middleware resolves when no
	// Registry is configured — must be equally free: With on a nil vector
	// returns a nil child without allocating, and the nil child discards.
	cv := r.CounterVec("x", "route")
	gv := r.GaugeVec("x", "route")
	hv := r.HistogramVec("x", nil, "route")
	if n := testing.AllocsPerRun(100, func() {
		cv.With("a").Inc()
		gv.With("a").Add(1)
		hv.With("a").Observe(2)
	}); n != 0 {
		t.Errorf("nil labeled vectors allocate %.0f/op, want 0", n)
	}

	// The nil *Logger — what the serving plane holds when no log sink is
	// configured — must no-op bare calls without allocating. Attr-bearing
	// calls pay for their variadic list at the call site regardless of the
	// receiver, which is why hot paths guard them with Enabled().
	var lg *obs.Logger
	if n := testing.AllocsPerRun(100, func() {
		lg.Debug("x")
		lg.Info("x")
		lg.Warn("x")
		lg.Error("x")
		if lg.Enabled() {
			t.Fatal("nil logger must report disabled")
		}
	}); n != 0 {
		t.Errorf("nil logger bare calls allocate %.0f/op, want 0", n)
	}

	// Nil span sinks — what traced code holds when no Tracer is configured —
	// must be equally free: a nil *Tracer no-ops and guarding a nil observer
	// returns nil (so hot loops keep a single pointer check).
	var tr *obs.Tracer
	if n := testing.AllocsPerRun(100, func() {
		tr.Observe(obs.SpanEvent{Name: "x"})
		_ = tr.Len()
		if obs.GuardSpans(nil, nil) != nil {
			t.Fatal("GuardSpans(nil) must stay nil")
		}
	}); n != 0 {
		t.Errorf("nil span sinks allocate %.0f/op, want 0", n)
	}

	// The nil instrumentation sink — what a run builds with neither an
	// Observer nor a Trace — must no-op every method without allocating or
	// reading the clock.
	if n := testing.AllocsPerRun(100, func() {
		sink := obs.NewSink(context.Background(), nil, nil, nil)
		if events, spans := sink.Callbacks(); sink != nil || events != nil || spans != nil {
			t.Fatal("a sink without callbacks must be nil")
		}
		start := sink.StageStart("x", 1)
		if !start.IsZero() {
			t.Fatal("nil sink read the clock")
		}
		b := sink.Batch(1)
		b.Done(0, obs.SpanEvent{Name: "x/series"})
		b.Next(obs.SpanEvent{Name: "em/month"})
		sink.Span(obs.SpanEvent{Name: "x"})
		sink.StageEnd("x", start, 1, 1, nil)
	}); n != 0 {
		t.Errorf("nil sink allocates %.0f/op, want 0", n)
	}

	// The Kalman workspace kernel — the unit the likelihood search pays
	// hundreds of times per fit — must stay allocation-free in steady state.
	y := syntheticBreakSeries(43, 20)
	fit, err := ssm.FitConfig(y, ssm.Config{Seasonal: true, ChangePoint: 20})
	if err != nil {
		t.Fatal(err)
	}
	m, scaled := fit.Model, fit.Scaled
	ws := kalman.NewWorkspace()
	if _, err := m.LogLikFilter(scaled, ws); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := m.LogLikFilter(scaled, ws); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("LogLikFilter with workspace allocates %.0f/op, want 0", n)
	}

	// Enabling FitStats must cost at most a constant few allocations per
	// whole fit (the deferred flush), never per likelihood evaluation.
	base := testing.AllocsPerRun(10, func() {
		if _, _, err := ssm.AICAtOptions(y, ssm.Config{Seasonal: true, ChangePoint: 20}, nil, ssm.FitOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	var stats ssm.FitStats
	withStats := testing.AllocsPerRun(10, func() {
		if _, _, err := ssm.AICAtOptions(y, ssm.Config{Seasonal: true, ChangePoint: 20}, nil, ssm.FitOptions{Stats: &stats}); err != nil {
			t.Fatal(err)
		}
	})
	if overhead := withStats - base; overhead > 8 {
		t.Errorf("FitStats collection adds %.0f allocs per fit (base %.0f), want <= 8", overhead, base)
	}
}

// TestAICFitAllocFree pins the change point scans' unit of work: an
// AIC-only fit on a warmed scratch allocates nothing, for the non-seasonal
// and the seasonal model, cold and warm, with and without a change point,
// with FitStats collection on. The fits alternate between the four model
// shapes on one scratch, as a scan's do.
func TestAICFitAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	y := syntheticBreakSeries(43, 20)
	var (
		s     ssm.Scratch
		stats ssm.FitStats
	)
	type fit struct {
		seasonal bool
		cp       int
		start    []float64
	}
	var fits []fit
	for _, seasonal := range []bool{false, true} {
		for _, cp := range []int{ssm.NoChangePoint, 20} {
			_, opt, err := ssm.AICAtOptions(y, ssm.Config{Seasonal: seasonal, ChangePoint: cp}, &s, ssm.FitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			warm := append([]float64(nil), opt...)
			fits = append(fits, fit{seasonal, cp, nil}, fit{seasonal, cp, warm})
		}
	}
	if n := testing.AllocsPerRun(3, func() {
		for _, f := range fits {
			if _, _, err := ssm.AICAtOptions(y, ssm.Config{Seasonal: f.seasonal, ChangePoint: f.cp}, &s, ssm.FitOptions{Start: f.start, Stats: &stats}); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("a round of %d fits allocates %.0f, want 0", len(fits), n)
	}
	for _, f := range fits {
		if n := testing.AllocsPerRun(3, func() {
			if _, _, err := ssm.AICAtOptions(y, ssm.Config{Seasonal: f.seasonal, ChangePoint: f.cp}, &s, ssm.FitOptions{Start: f.start, Stats: &stats}); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("AIC-only fit (seasonal %v, cp %d, warm %v) allocates %.0f, want 0", f.seasonal, f.cp, f.start != nil, n)
		}
	}
}

// TestAllocGuardRails pins absolute allocation budgets for the two
// benchmark-smoke workloads, so instrumentation regressions show up in plain
// `go test` without running the benchmark suite. Budgets are the measured
// baselines plus ~5% headroom (~3% for the EM fit's bytes).
func TestAllocGuardRails(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	if testing.Short() {
		t.Skip("skipping multi-second allocation audit in -short mode")
	}

	// One EM fit of a dense synthetic month (the BenchmarkEMFit workload).
	ds, _, err := micgen.Generate(micgen.Config{Seed: 1, Months: 1, RecordsPerMonth: 1000, BulkDiseases: 8, BulkMedicines: 10})
	if err != nil {
		t.Fatal(err)
	}
	emAllocs := testing.AllocsPerRun(3, func() {
		if _, err := medmodel.Fit(ds.Months[0], ds.Medicines.Len(), medmodel.FitOptions{MaxIter: 20}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("medmodel.Fit: %.0f allocs", emAllocs)
	if emAllocs > 161 { // measured baseline: 156
		t.Errorf("medmodel.Fit: %.0f allocs, budget 161", emAllocs)
	}

	// Bytes per EM fit, on that month and on a month shaped like a serving
	// fold's, which fits one month on a fresh kernel: a layout that grows
	// the per-month index fails here. The budgets are the bytes measured
	// with the entry-major occurrence table the tiles replaced (234,240 and
	// 147,824) plus ~3% for map-bucket jitter.
	serve := serveShapedMonth(t)
	for _, c := range []struct {
		name   string
		month  *mic.Monthly
		meds   int
		budget float64
	}{
		{"BenchmarkEMFit month", ds.Months[0], ds.Medicines.Len(), 241000},
		{"serve-mixed month", serve.Months[0], serve.Medicines.Len(), 152000},
	} {
		b := bytesPerRun(3, func() {
			if _, err := medmodel.Fit(c.month, c.meds, medmodel.FitOptions{MaxIter: 20}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("medmodel.Fit, %s: %.0f bytes", c.name, b)
		if b > c.budget {
			t.Errorf("medmodel.Fit, %s: %.0f bytes, budget %.0f", c.name, b, c.budget)
		}
	}

	// One prefix-checkpointed exact scan (the BenchmarkExactScanPrefix
	// workload). Its checkpoint resumes reuse the scanner's buffers, and its
	// fits a pooled scratch.
	y := syntheticBreakSeries(43, 20)
	prefixAllocs := testing.AllocsPerRun(1, func() {
		if _, err := changepoint.DetectExactPrefix(y, true, changepoint.PrefixOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("prefix exact scan: %.0f allocs", prefixAllocs)
	if prefixAllocs > 192 { // measured baseline: 183
		t.Errorf("prefix exact scan: %.0f allocs, budget 192", prefixAllocs)
	}

	// One binary search of a non-seasonal series through Detect (the serving
	// fold's per-series scan). Its fits run on a pooled scratch.
	binaryAllocs := testing.AllocsPerRun(10, func() {
		if _, err := changepoint.Detect(context.Background(), y, changepoint.DetectOptions{Method: changepoint.SearchBinary}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("binary Detect: %.0f allocs", binaryAllocs)
	if binaryAllocs > 10 { // measured baseline: 8
		t.Errorf("binary Detect: %.0f allocs, budget 10", binaryAllocs)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average bytes f
// allocates over runs calls, after one warm-up call, with GOMAXPROCS at 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// serveShapedMonth is a one-month corpus shaped like a serve-mixed fold's:
// 1,000 records drawn over the eleven scenario diseases that workload uses
// and the medicines indicated for them, filtered as the pipeline filters,
// which leaves about 600 usable records.
func serveShapedMonth(t *testing.T) *mic.Dataset {
	t.Helper()
	keep := map[string]bool{}
	for _, code := range []string{micgen.DiseaseHypertension, micgen.DiseaseArthritis, micgen.DiseaseHayFever,
		micgen.DiseaseHeatstroke, micgen.DiseaseInfluenza, micgen.DiseaseAsthma, micgen.DiseaseBronchitis,
		micgen.DiseaseCOPD, micgen.DiseaseLewyBody, micgen.DiseaseParkinson, micgen.DiseaseOsteoporosis} {
		keep[code] = true
	}
	full := micgen.NewCatalog(43, 0, 0, nil)
	cat := &micgen.Catalog{Cities: full.Cities, ClassGroups: full.ClassGroups}
	for _, d := range full.Diseases {
		if keep[d.Code] {
			cat.Diseases = append(cat.Diseases, d)
		}
	}
	kept := map[string]bool{}
	for _, m := range full.Medicines {
		var inds []micgen.Indication
		for _, ind := range m.Indications {
			if keep[ind.Disease] {
				inds = append(inds, ind)
			}
		}
		if len(inds) == 0 || (m.GenericOf != "" && !kept[m.GenericOf]) {
			continue
		}
		m.Indications = inds
		kept[m.Code] = true
		cat.Medicines = append(cat.Medicines, m)
	}
	ds, _, err := micgen.Generate(micgen.Config{Seed: 1, Months: 1, RecordsPerMonth: 1000, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	return mic.FilterDataset(ds, mic.FilterOptions{MinMonthlyFreq: trend.DefaultOptions().MinMonthlyFreq})
}
