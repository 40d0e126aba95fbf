package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// SpanEvent is one completed timed span of a pipeline run. Every field except
// Start and Duration is deterministic for a deterministic workload: the span
// set a run produces — names, categories, lanes, units, details, errors —
// depends only on the work performed, never on worker scheduling; only the
// wall-clock timestamps vary. Per-unit spans are delivered in index order
// by a Sink's Batch, which derives the progress events from them, so their
// emission order is serial-equivalent too.
type SpanEvent struct {
	// Cat is the span's category lane ("stage", "em", "detect", "scan",
	// "ssm"), rendered as a separate track in trace viewers.
	Cat string
	// Name is the span name, e.g. "stage/model", "em/month", "detect/series",
	// "scan/prefix".
	Name string
	// TID is the span's logical track id — a deterministic lane number, never
	// a goroutine id (goroutine ids would break worker-count invariance).
	TID int64
	// Start is the span's wall-clock start time.
	Start time.Time
	// Duration is the span's wall-clock length.
	Duration time.Duration
	// Month is the fitted month for per-month spans, -1 otherwise.
	Month int
	// Series identifies the span's series for per-series spans, e.g.
	// "prescription:3/7".
	Series string
	// Detail carries span-specific context, e.g. "cp=12" for a detection
	// with a change point or "anchor 0: 24 resumes" for a scan/prefix span.
	Detail string
	// Err is non-empty when the span's unit degraded or failed; for pipeline
	// spans the same failure is recorded in Analysis.Failures.
	Err string
	// Flow correlates spans belonging to one logical unit of work across
	// lanes (e.g. one ingested month's queue→fold→checkpoint→WAL→publish
	// lineage). Spans sharing a nonzero Flow are tied together in the trace
	// by Chrome Trace flow events (rendered as arrows between slices); 0
	// means the span belongs to no flow.
	Flow int64
}

// SpanObserver receives completed spans. A nil SpanObserver disables span
// emission at zero cost: instrumented code checks the observer for nil before
// building the span, so the disabled path performs no clock reads and no
// allocations. Unlike Observer deliveries, SpanObserver calls may arrive from
// concurrent workers (per-fit and intra-scan spans are emitted where they
// complete); implementations must be goroutine-safe. Tracer.Observe is.
type SpanObserver func(SpanEvent)

// GuardSpans wraps cb with panic isolation: the first panic in cb invokes
// onPanic with the recovered value, permanently disables delivery, and
// subsequent spans are dropped — a broken span sink can cost its own trace
// but never a pipeline worker. A nil cb returns nil (the disabled path keeps
// its zero cost); a nil onPanic just disables silently.
func GuardSpans(cb SpanObserver, onPanic func(r any)) SpanObserver {
	return guard(cb, onPanic)
}

// SpanStart is the start time of a span sent to tr: now, or zero without a
// clock read when tr is nil.
func SpanStart(tr SpanObserver) time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// Emit sends tr the span sp, timed from sp.Start to now and carrying err's
// text (a no-op when tr is nil).
func Emit(tr SpanObserver, sp SpanEvent, err error) {
	if tr == nil {
		return
	}
	sp.Duration = time.Since(sp.Start)
	if err != nil {
		sp.Err = err.Error()
	}
	tr(sp)
}

// Tracer collects SpanEvents and renders them as Chrome Trace Event Format
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. The zero
// value is ready to use; a nil Tracer discards spans, so a caller can wire
// tracer.Observe unconditionally. All methods are goroutine-safe.
type Tracer struct {
	mu    sync.Mutex
	spans []SpanEvent
}

// NewTracer returns an empty span collector.
func NewTracer() *Tracer { return &Tracer{} }

// Observe records one span (no-op on a nil receiver). It is a SpanObserver.
func (t *Tracer) Observe(e SpanEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, e)
	t.mu.Unlock()
}

// Len returns the number of collected spans (0 on a nil receiver).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of the collected spans in deterministic content order
// (category, name, lane, month, series, detail — wall-clock start only breaks
// exact duplicates), the order WriteTrace emits them in.
func (t *Tracer) Spans() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanEvent(nil), t.spans...)
	t.mu.Unlock()
	sortSpans(out)
	return out
}

// sortSpans orders spans by deterministic content so two traces of the same
// run differ only in their timestamp values, never in event order.
func sortSpans(spans []SpanEvent) {
	sort.SliceStable(spans, func(a, b int) bool {
		sa, sb := &spans[a], &spans[b]
		if sa.Cat != sb.Cat {
			return sa.Cat < sb.Cat
		}
		if sa.Name != sb.Name {
			return sa.Name < sb.Name
		}
		if sa.TID != sb.TID {
			return sa.TID < sb.TID
		}
		if sa.Month != sb.Month {
			return sa.Month < sb.Month
		}
		if sa.Series != sb.Series {
			return sa.Series < sb.Series
		}
		if sa.Detail != sb.Detail {
			return sa.Detail < sb.Detail
		}
		return sa.Start.Before(sb.Start)
	})
}

// traceEvent is one Chrome Trace Event Format entry. Complete events
// (ph "X") carry their duration inline; metadata events (ph "M") name the
// lanes. See the Trace Event Format spec (the format chrome://tracing and
// Perfetto consume).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	ID   int64          `json:"id,omitempty"` // flow id (ph "s"/"t"/"f")
	BP   string         `json:"bp,omitempty"` // binding point ("e" on ph "f")
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON Object Format variant of the Trace Event Format —
// the shape Perfetto's legacy JSON importer accepts.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// tracePID is the single logical process all spans belong to.
const tracePID = 1

// WriteTrace renders the collected spans as Chrome Trace Event Format JSON.
// Timestamps are microseconds relative to the earliest span, so traces of
// deterministic runs line up at t=0; events are emitted in deterministic
// content order (see Spans). A nil or empty tracer writes a valid empty
// trace. Lane-naming metadata events give each category its own named track.
// Spans sharing a nonzero Flow id additionally emit Chrome Trace flow
// events ("s"/"t"/"f" in wall-clock order within the flow), which viewers
// render as arrows connecting the flow's slices across lanes.
func (t *Tracer) WriteTrace(w io.Writer) error {
	spans := t.Spans()
	var t0 time.Time
	for i := range spans {
		if i == 0 || spans[i].Start.Before(t0) {
			t0 = spans[i].Start
		}
	}

	// Order each flow's member spans by wall-clock start (content order
	// breaking exact ties), so the arrows run queue → fold → … → publish.
	type flowPos struct{ pos, n int }
	flowOrder := map[*SpanEvent]flowPos{}
	{
		members := map[int64][]*SpanEvent{}
		for i := range spans {
			if spans[i].Flow != 0 {
				members[spans[i].Flow] = append(members[spans[i].Flow], &spans[i])
			}
		}
		for _, ms := range members {
			sort.SliceStable(ms, func(a, b int) bool { return ms[a].Start.Before(ms[b].Start) })
			for i, sp := range ms {
				flowOrder[sp] = flowPos{pos: i, n: len(ms)}
			}
		}
	}
	file := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	type lane struct {
		cat string
		tid int64
	}
	seen := map[lane]bool{}
	for i, sp := range spans {
		l := lane{sp.Cat, sp.TID}
		if !seen[l] {
			seen[l] = true
			file.TraceEvents = append(file.TraceEvents, traceEvent{
				Name: "thread_name", Ph: "M", PID: tracePID, TID: sp.TID,
				Args: map[string]any{"name": sp.Cat},
			})
		}
		ev := traceEvent{
			Name: sp.Name,
			Cat:  sp.Cat,
			Ph:   "X",
			TS:   float64(sp.Start.Sub(t0)) / float64(time.Microsecond),
			Dur:  float64(sp.Duration) / float64(time.Microsecond),
			PID:  tracePID,
			TID:  sp.TID,
		}
		args := map[string]any{}
		if sp.Month >= 0 {
			args["month"] = sp.Month
		}
		if sp.Series != "" {
			args["series"] = sp.Series
		}
		if sp.Detail != "" {
			args["detail"] = sp.Detail
		}
		if sp.Err != "" {
			args["error"] = sp.Err
		}
		if len(args) > 0 {
			ev.Args = args
		}
		file.TraceEvents = append(file.TraceEvents, ev)

		// Flow events bind to the slice enclosing their timestamp on the
		// same pid/tid, so each is emitted at its span's start; a flow with
		// a single member emits nothing (there is no arrow to draw).
		if fp, ok := flowOrder[&spans[i]]; ok && fp.n > 1 {
			fev := traceEvent{
				Name: "lineage", Cat: "flow", PID: tracePID, TID: sp.TID,
				TS: ev.TS, ID: sp.Flow,
			}
			switch {
			case fp.pos == 0:
				fev.Ph = "s"
			case fp.pos == fp.n-1:
				fev.Ph, fev.BP = "f", "e"
			default:
				fev.Ph = "t"
			}
			file.TraceEvents = append(file.TraceEvents, fev)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(file)
}

// Logical lane ids for the pipeline's span categories; spans in different
// categories render as separate tracks. The constants are part of the trace
// contract so tests (and external tools) can address lanes deterministically.
const (
	// LaneStage carries the pipeline stage brackets (model/reproduce/detect).
	LaneStage int64 = 0
	// LaneEM carries the per-month EM fit spans.
	LaneEM int64 = 1
	// LaneDetect carries the per-series change point search spans.
	LaneDetect int64 = 2
	// LaneScan carries the intra-scan spans of the exact prefix scan:
	// scan/prefix per anchor ladder, scan/contenders for the warm-fit phase
	// and scan/refit per cold refit.
	LaneScan int64 = 3
	// LaneSSM is reserved for per-fit structural model spans. Nothing emits
	// on it: the exact scan's fits are traced on LaneScan.
	LaneSSM int64 = 4
	// LaneServe carries the serving plane's lineage spans: one ingested
	// month's queue-admit, fold, checkpoint-write, WAL-commit, and
	// epoch-publish steps, correlated by a per-month Flow id.
	LaneServe int64 = 5
)
