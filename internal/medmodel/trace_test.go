package medmodel

import (
	"context"
	"strings"
	"testing"
	"time"

	"mictrend/internal/faultpoint"
	"mictrend/internal/obs"
)

// TestFitConvergenceTrace pins the TraceConvergence contract: the recorded
// per-iteration log-likelihoods end at the final LogLik, one entry per
// iteration — and stay nil when tracing is off.
func TestFitConvergenceTrace(t *testing.T) {
	d := multiMonth(1)
	plain, err := Fit(d.Months[0], d.Medicines.Len(), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.LogLikTrace != nil {
		t.Fatal("untraced fit allocated a convergence trace")
	}
	traced, err := Fit(d.Months[0], d.Medicines.Len(), FitOptions{TraceConvergence: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.LogLikTrace) != traced.Iterations {
		t.Fatalf("trace length %d, want %d iterations", len(traced.LogLikTrace), traced.Iterations)
	}
	if got := traced.LogLikTrace[len(traced.LogLikTrace)-1]; got != traced.LogLik {
		t.Fatalf("trace ends at %v, want final LogLik %v", got, traced.LogLik)
	}
	if traced.LogLik != plain.LogLik || traced.Iterations != plain.Iterations {
		t.Fatal("tracing changed the fit")
	}
	// Same contract on the smoothed path.
	smoothed, err := FitSmoothed(d.Months[0], d.Medicines.Len(),
		FitOptions{TraceConvergence: true}, traced, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(smoothed.LogLikTrace) != smoothed.Iterations {
		t.Fatalf("smoothed trace length %d, want %d", len(smoothed.LogLikTrace), smoothed.Iterations)
	}
}

// TestFitAllMonthSpans pins the span contract: one em/month span per month,
// emitted in ascending month order for any worker count, with the failed
// month's span carrying its error.
func TestFitAllMonthSpans(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Enable("medmodel/fit-month", faultpoint.Spec{
		Match: func(detail string) bool { return detail == "2" },
	})
	d := multiMonth(5)
	for _, workers := range []int{1, 3} {
		var got []obs.SpanEvent
		_, fails, err := FitAll(context.Background(), d, FitOptions{
			Workers: workers,
			Trace:   func(sp obs.SpanEvent) { got = append(got, sp) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(fails) != 1 {
			t.Fatalf("workers %d: fails = %+v", workers, fails)
		}
		if len(got) != 5 {
			t.Fatalf("workers %d: %d spans, want 5", workers, len(got))
		}
		for i, sp := range got {
			if sp.Name != "em/month" || sp.Cat != "em" || sp.TID != obs.LaneEM {
				t.Fatalf("workers %d: span %d mislabelled: %+v", workers, i, sp)
			}
			if sp.Month != i {
				t.Fatalf("workers %d: span %d out of month order (month %d)", workers, i, sp.Month)
			}
			if (sp.Err != "") != (i == 2) {
				t.Fatalf("workers %d: span %d error %q, failure belongs to month 2", workers, i, sp.Err)
			}
			if i != 2 && !strings.HasPrefix(sp.Detail, "iters=") {
				t.Fatalf("workers %d: span %d detail %q, want iteration count", workers, i, sp.Detail)
			}
		}
	}
}

// TestFitAllSpansSurviveCancel pins the cancellation rule for FitAll's two
// streams: progress events stop at the cancel, but every month that was
// fitted still gets its em/month span, so an interrupted run flushes a
// complete partial trace. Month 0's event cancels the run while month 1 is
// in flight on the second worker (every fit is slowed so both overlap).
func TestFitAllSpansSurviveCancel(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Enable("medmodel/fit-month", faultpoint.Spec{
		Match: func(string) bool { return false },
		Delay: 100 * time.Millisecond,
	})
	d := multiMonth(6)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events []obs.Event
	var spans []obs.SpanEvent
	models, _, err := FitAll(ctx, d, FitOptions{
		Workers: 2,
		Observer: func(e obs.Event) {
			events = append(events, e)
			cancel()
		},
		Trace: func(sp obs.SpanEvent) { spans = append(spans, sp) },
	})
	if err == nil {
		t.Fatal("cancelled FitAll returned no error")
	}
	if len(events) != 1 || events[0].Month != 0 {
		t.Fatalf("events after the cancel: %+v", events)
	}
	fitted := 0
	for fitted < len(models) && models[fitted] != nil {
		fitted++
	}
	if fitted < 2 {
		t.Fatalf("only %d month(s) fitted; month 1 was in flight at the cancel", fitted)
	}
	if len(spans) < fitted {
		t.Fatalf("%d em/month spans for %d fitted months", len(spans), fitted)
	}
	for i := 0; i < fitted; i++ {
		if spans[i].Name != "em/month" || spans[i].Month != i {
			t.Fatalf("span %d = %+v, want em/month for month %d", i, spans[i], i)
		}
	}
}
