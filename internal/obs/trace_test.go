package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestTracerNilSafe pins the disabled-tracer contract: a nil *Tracer accepts
// spans, reports zero length, and writes a valid empty trace.
func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Observe(SpanEvent{Name: "x"})
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer retained spans")
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if file.TraceEvents == nil {
		t.Fatal("empty trace must still carry a traceEvents array")
	}
}

// TestTracerWriteTraceStructure pins the Trace Event Format contract the
// -trace flag relies on: the output is a JSON object with a traceEvents
// array whose entries carry the fields Perfetto's JSON importer requires
// (name, ph, ts, pid, tid; dur for complete events), timestamps are relative
// to the earliest span, and args carry the deterministic span content.
func TestTracerWriteTraceStructure(t *testing.T) {
	tr := NewTracer()
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	tr.Observe(SpanEvent{
		Cat: "stage", Name: "stage/model", TID: LaneStage,
		Start: base, Duration: 5 * time.Millisecond, Month: -1,
	})
	tr.Observe(SpanEvent{
		Cat: "em", Name: "em/month", TID: LaneEM,
		Start: base.Add(time.Millisecond), Duration: time.Millisecond,
		Month: 3,
	})
	tr.Observe(SpanEvent{
		Cat: "detect", Name: "detect/series", TID: LaneDetect,
		Start: base.Add(2 * time.Millisecond), Duration: 2 * time.Millisecond,
		Month: -1, Series: "prescription:3/7", Detail: "cp=12", Err: "boom",
	})

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	var complete, meta int
	for _, ev := range file.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if name == "" {
			t.Fatalf("event without name: %v", ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event without numeric pid: %v", ev)
		}
		if _, ok := ev["tid"].(float64); !ok {
			t.Fatalf("event without numeric tid: %v", ev)
		}
		switch ph {
		case "M":
			meta++
		case "X":
			complete++
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				t.Fatalf("complete event with bad ts: %v", ev)
			}
			if ev["dur"] == nil {
				t.Fatalf("complete event without dur: %v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
	}
	if complete != 3 {
		t.Fatalf("%d complete events, want 3", complete)
	}
	if meta != 3 { // one thread_name per lane
		t.Fatalf("%d metadata events, want 3", meta)
	}

	// The failed series span's args must carry the failure and detail.
	var found bool
	for _, ev := range file.TraceEvents {
		if ev["name"] == "detect/series" {
			args, _ := ev["args"].(map[string]any)
			if args["series"] != "prescription:3/7" || args["error"] != "boom" || args["detail"] != "cp=12" {
				t.Fatalf("detect span args = %v", args)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("detect/series span missing")
	}

	// Timestamps are relative: the earliest complete event sits at ts 0.
	minTS := -1.0
	for _, ev := range file.TraceEvents {
		if ev["ph"] == "X" {
			ts := ev["ts"].(float64)
			if minTS < 0 || ts < minTS {
				minTS = ts
			}
		}
	}
	if minTS != 0 {
		t.Fatalf("earliest span at ts %v, want 0", minTS)
	}
}

// TestTracerDeterministicOrder pins the content-order contract: spans
// recorded in different arrival orders serialize identically apart from
// timestamp values.
func TestTracerDeterministicOrder(t *testing.T) {
	spans := []SpanEvent{
		{Cat: "em", Name: "em/month", TID: LaneEM, Month: 2},
		{Cat: "em", Name: "em/month", TID: LaneEM, Month: 0},
		{Cat: "detect", Name: "detect/series", TID: LaneDetect, Month: -1, Series: "disease:1"},
		{Cat: "em", Name: "em/month", TID: LaneEM, Month: 1},
		{Cat: "stage", Name: "stage/model", TID: LaneStage, Month: -1},
	}
	a, b := NewTracer(), NewTracer()
	for _, sp := range spans {
		a.Observe(sp)
	}
	for i := len(spans) - 1; i >= 0; i-- {
		b.Observe(spans[i])
	}
	if !reflect.DeepEqual(a.Spans(), b.Spans()) {
		t.Fatalf("span order depends on arrival order:\n%v\n%v", a.Spans(), b.Spans())
	}
}

// TestGuardSpansMutesPanickingTracer pins the satellite contract: the first
// panic in a span sink disables it permanently — later spans are dropped, the
// panic is surfaced through onPanic exactly once, and the caller never sees
// it. GuardSpans and a Sink's span callback share the one guard; the sink
// reports the panic as a trace-observer failure and keeps its events.
func TestGuardSpansMutesPanickingTracer(t *testing.T) {
	if GuardSpans(nil, nil) != nil {
		t.Fatal("GuardSpans(nil) must stay nil to keep the disabled path free")
	}
	calls, panics := 0, 0
	guarded := GuardSpans(func(SpanEvent) {
		calls++
		panic("tracer boom")
	}, func(r any) {
		panics++
		if r != "tracer boom" {
			t.Fatalf("onPanic got %v", r)
		}
	})
	for i := 0; i < 5; i++ {
		guarded(SpanEvent{Name: "s"}) // must not propagate the panic
	}
	if calls != 1 {
		t.Fatalf("panicking tracer called %d times, want 1 (muted after first panic)", calls)
	}
	if panics != 1 {
		t.Fatalf("onPanic called %d times, want 1", panics)
	}

	calls = 0
	var msgs []string
	events := 0
	sink := NewSink(context.Background(), func(Event) { events++ }, func(SpanEvent) {
		calls++
		panic("tracer boom")
	}, func(msg string) { msgs = append(msgs, msg) })
	b := sink.Batch(3)
	for i := 0; i < 3; i++ {
		b.Done(i, SpanEvent{Name: "detect/series", Month: -1})
	}
	sink.Span(SpanEvent{Name: "scan/prefix"})
	if calls != 1 || events != 3 {
		t.Fatalf("sink: tracer ran %d times (want 1), observer %d (want 3)", calls, events)
	}
	if len(msgs) != 1 || msgs[0] != "trace observer panicked: tracer boom" {
		t.Fatalf("sink onPanic saw %v", msgs)
	}
}

// TestSequencerOrderWithFailedWorker pins the mid-sequence failure contract:
// when the worker for unit i reports a failure (its span carries the error),
// later units still flush in serial order, and when a unit never reports
// (a permanent hole), delivery stops at the hole without blocking Done.
func TestSequencerOrderWithFailedWorker(t *testing.T) {
	var got []int
	var errs []string
	batch := func(n int) *Batch {
		return NewSink(context.Background(), func(e Event) { errs = append(errs, e.Err) },
			func(sp SpanEvent) { got = append(got, sp.Month) }, nil).Batch(n)
	}
	span := func(i int) SpanEvent { return SpanEvent{Name: "em/month", Month: i} }

	b := batch(4)
	b.Done(2, span(2)) // out of order
	b.Done(0, span(0))
	failed := span(1)
	failed.Err = "fit failed"
	b.Done(1, failed) // the failed unit still reports, with its error
	b.Done(3, span(3))
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery order %v, want %v", got, want)
	}
	if want := []string{"", "fit failed", "", ""}; !reflect.DeepEqual(errs, want) {
		t.Fatalf("event errors %q, want %q", errs, want)
	}

	// A permanent hole: unit 1 never reports; 2 and 3 must not flush, and
	// Done must not block.
	got = nil
	b = batch(4)
	b.Done(0, span(0))
	b.Done(2, span(2))
	b.Done(3, span(3))
	if want := []int{0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery order with hole %v, want %v", got, want)
	}
}

// TestTracerFlowEvents pins the lineage-flow contract: spans sharing a
// nonzero Flow id emit Chrome Trace flow events ("s" at the first member,
// "t" in the middle, "f" with bp="e" at the last, ordered by wall-clock
// start), each bound to its span's pid/tid/ts so viewers attach the arrow to
// the right slice; single-member flows and Flow=0 spans emit none.
func TestTracerFlowEvents(t *testing.T) {
	tr := NewTracer()
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	// One three-step lineage (flow 8), recorded out of wall-clock order.
	tr.Observe(SpanEvent{
		Cat: "serve", Name: "serve/publish", TID: LaneServe,
		Start: base.Add(4 * time.Millisecond), Duration: time.Millisecond,
		Month: 7, Flow: 8,
	})
	tr.Observe(SpanEvent{
		Cat: "serve", Name: "serve/queue", TID: LaneServe,
		Start: base, Duration: time.Millisecond, Month: 7, Flow: 8,
	})
	tr.Observe(SpanEvent{
		Cat: "serve", Name: "serve/fold", TID: LaneServe,
		Start: base.Add(2 * time.Millisecond), Duration: time.Millisecond,
		Month: 7, Flow: 8,
	})
	// A single-member flow and a flowless span: no arrows.
	tr.Observe(SpanEvent{
		Cat: "serve", Name: "serve/queue", TID: LaneServe,
		Start: base.Add(6 * time.Millisecond), Duration: time.Millisecond,
		Month: 9, Flow: 10,
	})
	tr.Observe(SpanEvent{
		Cat: "stage", Name: "stage/model", TID: LaneStage,
		Start: base, Duration: 8 * time.Millisecond, Month: -1,
	})

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	type flowEv struct {
		ph string
		ts float64
		id float64
		bp any
	}
	var flows []flowEv
	tsByName := map[string]float64{}
	for _, ev := range file.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "s", "t", "f":
			id, ok := ev["id"].(float64)
			if !ok {
				t.Fatalf("flow event without id: %v", ev)
			}
			if ev["pid"] == nil || ev["tid"] == nil {
				t.Fatalf("flow event without pid/tid: %v", ev)
			}
			flows = append(flows, flowEv{ph: ph, ts: ev["ts"].(float64), id: id, bp: ev["bp"]})
		case "X":
			if args, _ := ev["args"].(map[string]any); args["month"] == float64(7) {
				tsByName[ev["name"].(string)] = ev["ts"].(float64)
			}
		}
	}
	if len(flows) != 3 {
		t.Fatalf("%d flow events, want 3 (single-member and flowless spans emit none): %+v", len(flows), flows)
	}
	// Wall-clock order within the flow: s at queue, t at fold, f at publish.
	want := []struct {
		ph   string
		name string
	}{{"s", "serve/queue"}, {"t", "serve/fold"}, {"f", "serve/publish"}}
	for _, fv := range flows {
		if fv.id != 8 {
			t.Fatalf("flow id = %v, want 8", fv.id)
		}
	}
	for _, wv := range want {
		var match *flowEv
		for i := range flows {
			if flows[i].ts == tsByName[wv.name] {
				match = &flows[i]
			}
		}
		if match == nil || match.ph != wv.ph {
			t.Fatalf("no %q flow event at %s (ts %v); flows %+v", wv.ph, wv.name, tsByName[wv.name], flows)
		}
		if wv.ph == "f" && match.bp != "e" {
			t.Fatalf("terminating flow event missing bp=e: %+v", *match)
		}
	}
}
