package trend

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"

	"mictrend/internal/changepoint"
	"mictrend/internal/faultpoint"
	"mictrend/internal/medmodel"
	"mictrend/internal/micgen"
	"mictrend/internal/obs"
)

// streamLog records, in delivery order, the progress events and the stage
// and per-unit spans one run hands its sinks, with the wall-clock fields
// zeroed. Intra-scan spans (scan/*) arrive from concurrent contender
// workers in no fixed order, so they are left out.
type streamLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *streamLog) event(e obs.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf("E %s stage=%s total=%d done=%d month=%d series=%s err=%s",
		e.Kind, e.Stage, e.Total, e.Done, e.Month, e.Series, e.Err))
}

func (l *streamLog) span(sp obs.SpanEvent) {
	if !strings.HasPrefix(sp.Name, "stage/") && sp.Name != "em/month" && !strings.HasSuffix(sp.Name, "/series") {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf("S %s %s tid=%d month=%d series=%s detail=%s err=%s flow=%d",
		sp.Cat, sp.Name, sp.TID, sp.Month, sp.Series, sp.Detail, sp.Err, sp.Flow))
}

// hash is FNV-1a over the rendered lines.
func (l *streamLog) hash() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := fnv.New64a()
	for _, s := range l.lines {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func (l *streamLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// wire points opts' Observer and Trace at l.
func (l *streamLog) wire(opts *Options) {
	opts.Observer = l.event
	opts.Trace = l.span
}

// checkStream compares a recorded stream with its golden hash.
func checkStream(t *testing.T, name string, l *streamLog, want uint64) {
	t.Helper()
	if len(l.lines) == 0 {
		t.Fatalf("%s: nothing recorded", name)
	}
	if got := l.hash(); got != want {
		t.Errorf("%s: stream hash = %#x, want %#x (%d lines)\n%s", name, got, want, len(l.lines), l)
	}
}

// TestInstrumentationStreamsGolden pins the progress events and the ordered
// span stream of every instrumented entry point: Analyze at one and four
// workers with a degraded series, Surveil with and without a reused
// Analysis, a checkpoint-resumed Analyze (the MonthFitted remap onto real
// months), explicit EM sinks, and direct FitAll and Detect runs. Durations
// and timestamps are left out; everything else must stay byte-identical.
func TestInstrumentationStreamsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	ds, truth, err := micgen.Generate(micgen.Config{
		Seed: 11, Months: 24, RecordsPerMonth: 400, BulkDiseases: 4, BulkMedicines: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultOptions()
	base.Method = MethodBinary
	base.Seasonal = false
	base.MinSeriesTotal = 200
	faultpoint.Reset()
	clean, err := Analyze(context.Background(), ds, base)
	if err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(clean)

	t.Run("analyze", func(t *testing.T) {
		defer faultpoint.Reset()
		faultpoint.Enable("trend/detect", faultpoint.Spec{
			Match: func(detail string) bool { return detail == victim },
		})
		for _, workers := range []int{1, 4} {
			var l streamLog
			opts := base
			opts.Workers = workers
			l.wire(&opts)
			if _, err := Analyze(context.Background(), ds, opts); err != nil {
				t.Fatal(err)
			}
			checkStream(t, fmt.Sprintf("workers %d", workers), &l, 0x0b10684b1764ce72)
		}
	})

	t.Run("surveil", func(t *testing.T) {
		c := truth.Catalog
		h := HierarchyFromCodes(ds, c.MedicineClasses(), c.ClassGroupCodes(), c.DiseaseGroups())
		for _, tc := range []struct {
			name     string
			analysis *Analysis
			want     uint64
		}{{"fresh", nil, 0xd45785952397f497}, {"reused", clean, 0xd3e731d7921b25ca}} {
			var l streamLog
			sopts := SurveilOptions{Hierarchy: h, Pipeline: base, Analysis: tc.analysis}
			sopts.Pipeline.Workers = 2
			l.wire(&sopts.Pipeline)
			if _, err := Surveil(context.Background(), ds, sopts); err != nil {
				t.Fatal(err)
			}
			checkStream(t, tc.name, &l, tc.want)
		}
	})

	t.Run("checkpoint", func(t *testing.T) {
		ckpt := newMemCheckpointer()
		opts := base
		opts.Workers = 2
		opts.Checkpoint = ckpt
		if _, err := Analyze(context.Background(), ds, opts); err != nil {
			t.Fatal(err)
		}
		for m := 1; m < ds.T(); m += 2 {
			delete(ckpt.months, m)
		}
		var l streamLog
		l.wire(&opts)
		if _, err := Analyze(context.Background(), ds, opts); err != nil {
			t.Fatal(err)
		}
		checkStream(t, "resumed", &l, 0x75fecdf8ab2c03ed)
	})

	t.Run("explicit-em", func(t *testing.T) {
		var l, em streamLog
		opts := base
		opts.Workers = 3
		l.wire(&opts)
		opts.EM.Observer = em.event
		opts.EM.Trace = em.span
		if _, err := Analyze(context.Background(), ds, opts); err != nil {
			t.Fatal(err)
		}
		checkStream(t, "pipeline", &l, 0x032d1d7c6aec5fe0)
		checkStream(t, "em", &em, 0xf5d608eee41525fe)
	})

	t.Run("fitall", func(t *testing.T) {
		var l streamLog
		if _, _, err := medmodel.FitAll(context.Background(), ds, medmodel.FitOptions{
			Workers: 3, Observer: l.event, Trace: l.span,
		}); err != nil {
			t.Fatal(err)
		}
		checkStream(t, "fitall", &l, 0x452c3a44a7d8f055)
	})

	t.Run("detect", func(t *testing.T) {
		series := clean.Medicines[0].Series
		var l streamLog
		spans := 0
		for _, method := range []changepoint.SearchMethod{changepoint.SearchExact, changepoint.SearchBinary, changepoint.SearchExactPrefix} {
			if _, err := changepoint.Detect(context.Background(), series, changepoint.DetectOptions{
				Method: method, Workers: 2, Observer: l.event,
				Trace: func(sp obs.SpanEvent) {
					l.mu.Lock()
					spans++
					l.mu.Unlock()
					l.span(sp)
				},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if spans == 0 {
			t.Fatal("the prefix scan emitted no intra-scan spans")
		}
		checkStream(t, "detect", &l, 0xa9a04a3340dbd82f)
	})
}
