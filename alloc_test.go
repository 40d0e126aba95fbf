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
	"testing"

	"mictrend/internal/changepoint"
	"mictrend/internal/kalman"
	"mictrend/internal/medmodel"
	"mictrend/internal/micgen"
	"mictrend/internal/obs"
	"mictrend/internal/ssm"
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
		if _, _, err := ssm.AICAtOptions(y, true, 20, nil, ssm.FitOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	var stats ssm.FitStats
	withStats := testing.AllocsPerRun(10, func() {
		if _, _, err := ssm.AICAtOptions(y, true, 20, nil, ssm.FitOptions{Stats: &stats}); err != nil {
			t.Fatal(err)
		}
	})
	if overhead := withStats - base; overhead > 8 {
		t.Errorf("FitStats collection adds %.0f allocs per fit (base %.0f), want <= 8", overhead, base)
	}
}

// TestAllocGuardRails pins absolute allocation budgets for the two
// benchmark-smoke workloads, so instrumentation regressions show up in plain
// `go test` without running the benchmark suite. Budgets are the measured
// baselines plus ~5% headroom.
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

	// One prefix-checkpointed exact scan (the BenchmarkExactScanPrefix
	// workload). Its checkpoint resumes reuse the scanner's buffers.
	y := syntheticBreakSeries(43, 20)
	prefixAllocs := testing.AllocsPerRun(1, func() {
		if _, err := changepoint.DetectExactPrefix(y, true, changepoint.PrefixOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("prefix exact scan: %.0f allocs", prefixAllocs)
	if prefixAllocs > 960 { // measured baseline: 913
		t.Errorf("prefix exact scan: %.0f allocs, budget 960", prefixAllocs)
	}
}
