package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", 1, 2)
	tm := r.Timer("x")
	if c != nil || g != nil || h != nil || tm != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// None of these may panic.
	c.Add(3)
	c.Inc()
	g.Set(9)
	h.Observe(1.5)
	tm.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 || tm.Total() != 0 || tm.Count() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Timings) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestNilHandleZeroAlloc(t *testing.T) {
	var c *Counter
	var h *Histogram
	var tm *Timer
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		h.Observe(1)
		tm.Observe(1)
	})
	if allocs != 0 {
		t.Fatalf("nil-handle instrumentation allocated %v/op", allocs)
	}
	r := NewRegistry()
	ec := r.Counter("c")
	eh := r.Histogram("h", 1, 10, 100)
	allocs = testing.AllocsPerRun(1000, func() {
		ec.Add(1)
		eh.Observe(5)
	})
	if allocs != 0 {
		t.Fatalf("enabled counter/histogram writes allocated %v/op", allocs)
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	if r.Histogram("h", 1, 2) != r.Histogram("h") {
		t.Fatal("same name must return the same histogram regardless of bounds")
	}
}

// TestRegistryLookupAllocFree pins that resolving a metric that already
// exists allocates nothing, for every accessor: code that looks a metric up
// per fold or per request pays a map hit, never a new family or child.
func TestRegistryLookupAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	r := NewRegistry()
	r.Counter("c")
	r.Gauge("g")
	r.Histogram("h", 1, 10)
	r.Timer("t")
	r.CounterVec("cv", "route").With("/v1/epoch")
	if n := testing.AllocsPerRun(100, func() {
		r.Counter("c").Inc()
		r.Gauge("g").Set(1)
		r.Histogram("h", 1, 10).Observe(2)
		r.Timer("t").Observe(time.Millisecond)
		r.CounterVec("cv", "route").With("/v1/epoch").Inc()
	}); n != 0 {
		t.Fatalf("live metric lookups allocate %.0f/op, want 0", n)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("iters", 2, 5, 10)
	for _, v := range []float64{1, 2, 3, 7, 50} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["iters"]
	if s.Count != 5 || s.Sum != 63 || s.Min != 1 || s.Max != 50 {
		t.Fatalf("bad summary: %+v", s)
	}
	// Cumulative: ≤2 → {1,2}, ≤5 → +{3}, ≤10 → +{7}, +Inf → +{50}.
	want := []int64{2, 3, 4, 5}
	for i, b := range s.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d: got %d want %d (%+v)", i, b.Count, want[i], s.Buckets)
		}
	}
}

func TestSnapshotDeterministicJSON(t *testing.T) {
	build := func(order []int) Snapshot {
		r := NewRegistry()
		for _, i := range order {
			name := string(rune('a' + i))
			r.Counter("count/" + name).Add(int64(i))
			r.Histogram("hist/"+name, 1, 2).Observe(float64(i))
		}
		r.Timer("time/x").Observe(time.Duration(rand.Int63n(1e9)))
		return r.Snapshot()
	}
	var b1, b2 bytes.Buffer
	if err := build([]int{0, 1, 2, 3}).Deterministic().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build([]int{3, 1, 0, 2}).Deterministic().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("deterministic snapshots differ:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	if strings.Contains(b1.String(), "timings") {
		t.Fatal("Deterministic() must strip timings")
	}
	if !strings.Contains(b1.String(), `"+Inf"`) {
		t.Fatal("overflow bucket bound must serialize as \"+Inf\"")
	}
}

func TestConcurrentCountsAreExact(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	h := r.Histogram("h", 10, 100)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(2)
				h.Observe(float64(i % 150))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("counter = %d, want 16000", c.Value())
	}
	if s := r.Snapshot().Histograms["h"]; s.Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", s.Count)
	}
}

// seriesSpan is unit i's per-series span in the batch tests.
func seriesSpan(i int) SpanEvent {
	return SpanEvent{Name: "detect/series", Month: -1, Series: "s" + strconv.Itoa(i)}
}

// TestSequencerSerialOrder: a Batch delivers units reported from concurrent
// workers in random order strictly in index order, each span before the
// SeriesDone event derived from it.
func TestSequencerSerialOrder(t *testing.T) {
	const n = 200
	var got []string
	sink := NewSink(context.Background(),
		func(e Event) { got = append(got, fmt.Sprintf("E %s %d/%d", e.Series, e.Done, e.Total)) },
		func(sp SpanEvent) { got = append(got, "S "+sp.Series) }, nil)
	b := sink.Batch(n)
	var wg sync.WaitGroup
	for _, i := range rand.Perm(n) {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.Done(i, seriesSpan(i))
		}(i)
	}
	wg.Wait()
	if len(got) != 2*n {
		t.Fatalf("delivered %d of %d", len(got), 2*n)
	}
	for i := 0; i < n; i++ {
		if want := "S s" + strconv.Itoa(i); got[2*i] != want {
			t.Fatalf("delivery %d = %q, want %q", 2*i, got[2*i], want)
		}
		if want := fmt.Sprintf("E s%d %d/%d", i, i+1, n); got[2*i+1] != want {
			t.Fatalf("delivery %d = %q, want %q", 2*i+1, got[2*i+1], want)
		}
	}
}

// TestSequencerHoleNeverBlocks: a unit that never reports holds back every
// later one, and Done never blocks on it.
func TestSequencerHoleNeverBlocks(t *testing.T) {
	fired := 0
	b := NewSink(context.Background(), func(Event) { fired++ }, nil, nil).Batch(4)
	b.Done(0, seriesSpan(0))
	// Index 1 never reports; later indices must neither block nor fire.
	done := make(chan struct{})
	go func() {
		b.Done(2, seriesSpan(2))
		b.Done(3, seriesSpan(3))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Done blocked on a hole")
	}
	if fired != 1 {
		t.Fatalf("events past the hole fired (%d)", fired)
	}
}

// TestGuardRecoversPanic: a panicking Observer is muted after its first
// panic, which onPanic reports once; the span callback keeps running. A
// sink with neither callback is nil.
func TestGuardRecoversPanic(t *testing.T) {
	if NewSink(context.Background(), nil, nil, nil) != nil {
		t.Fatal("NewSink without callbacks must stay nil for the zero-cost disabled path")
	}
	var panics []string
	calls, spans := 0, 0
	sink := NewSink(context.Background(), func(e Event) {
		calls++
		if calls == 2 {
			panic("observer bug")
		}
	}, func(SpanEvent) { spans++ }, func(msg string) { panics = append(panics, msg) })
	start := sink.StageStart("model", 3)
	sink.StageEnd("model", start, 3, 3, nil) // panics
	b := sink.Batch(2)
	b.Done(0, SpanEvent{Name: "em/month", Month: 0}) // dropped
	b.Done(1, SpanEvent{Name: "em/month", Month: 1}) // dropped
	if calls != 2 {
		t.Fatalf("callback ran %d times, want 2 (disabled after panic)", calls)
	}
	if spans != 3 {
		t.Fatalf("span callback ran %d times, want 3 (an observer panic mutes events only)", spans)
	}
	if len(panics) != 1 || panics[0] != "observer panicked: observer bug" {
		t.Fatalf("onPanic saw %v", panics)
	}
}

// TestSinkStopsEventsOnCancel: once ctx is cancelled the sink delivers no
// event, while spans, ordered or not, keep flowing.
func TestSinkStopsEventsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var events []Event
	var spans []string
	sink := NewSink(ctx, func(e Event) { events = append(events, e) },
		func(sp SpanEvent) { spans = append(spans, sp.Name) }, nil)
	start := sink.StageStart("detect", 2)
	b := sink.Batch(2)
	b.Done(0, seriesSpan(0))
	cancel()
	b.Done(1, seriesSpan(1))
	sink.Span(SpanEvent{Name: "scan/prefix"})
	sink.StageEnd("detect", start, 2, 2, ctx.Err())
	if len(events) != 2 || events[0].Kind != StageStart || events[1].Kind != SeriesDone {
		t.Fatalf("events = %+v, want StageStart and one SeriesDone before the cancel", events)
	}
	if want := []string{"detect/series", "detect/series", "scan/prefix", "stage/detect"}; !reflect.DeepEqual(spans, want) {
		t.Fatalf("spans = %v, want %v", spans, want)
	}
}

// TestSinkDerivesEvents pins the span-to-event mapping: stage brackets,
// em/month and <stage>/series units, a skipped (cancelled) unit, and a
// failed unit's error.
func TestSinkDerivesEvents(t *testing.T) {
	var got []string
	sink := NewSink(context.Background(), func(e Event) {
		got = append(got, fmt.Sprintf("%s %s total=%d done=%d month=%d series=%s err=%s",
			e.Kind, e.Stage, e.Total, e.Done, e.Month, e.Series, e.Err))
	}, nil, nil)
	start := sink.StageStart("model", 2)
	if start.IsZero() {
		t.Fatal("StageStart returned no start time")
	}
	months := sink.Batch(2)
	months.Next(SpanEvent{Name: "em/month", Month: 3})
	months.Next(SpanEvent{Name: "em/month", Month: 5, Err: "boom"})
	sink.StageEnd("model", start, 2, 1, errors.New("partial"))
	series := sink.Batch(3)
	series.Done(1, SpanEvent{})
	series.Done(0, SpanEvent{Name: "surveil-drill/series", Month: -1, Series: "medicine:2"})
	series.Done(2, SpanEvent{Name: "scan/refit"})
	want := []string{
		"stage-start model total=2 done=0 month=-1 series= err=",
		"month-fitted model total=2 done=1 month=3 series= err=",
		"month-fitted model total=2 done=2 month=5 series= err=boom",
		"stage-end model total=2 done=1 month=-1 series= err=partial",
		"series-done surveil-drill total=3 done=1 month=-1 series=medicine:2 err=",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: MonthFitted, Stage: "model", Month: 4, Done: 5, Total: 36}
	if !strings.Contains(e.String(), "month 4") {
		t.Fatalf("unhelpful event string %q", e)
	}
	e = Event{Kind: SeriesDone, Stage: "detect", Series: "medicine:3", Err: "boom"}
	if !strings.Contains(e.String(), "medicine:3") || !strings.Contains(e.String(), "boom") {
		t.Fatalf("unhelpful event string %q", e)
	}
	for _, k := range []EventKind{StageStart, StageEnd, MonthFitted, SeriesDone} {
		if k.String() == "" {
			t.Fatal("kind without a name")
		}
	}
}
