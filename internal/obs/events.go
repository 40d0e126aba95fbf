package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind identifies a progress event.
type EventKind uint8

// Event kinds.
const (
	// StageStart opens a pipeline stage ("model", "reproduce", "detect",
	// "scan"); Total carries the stage's planned unit count when known.
	StageStart EventKind = iota
	// StageEnd closes a stage; Duration carries its wall-clock.
	StageEnd
	// MonthFitted reports one month's medication model fit (stage "model").
	MonthFitted
	// SeriesDone reports one series' change point search (stage "detect").
	SeriesDone
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case StageStart:
		return "stage-start"
	case StageEnd:
		return "stage-end"
	case MonthFitted:
		return "month-fitted"
	default:
		return "series-done"
	}
}

// Event is one structured progress event. All fields except Duration are
// deterministic for a deterministic workload; per-unit events are delivered
// in serial-equivalent order (months ascending, series in job order)
// regardless of worker count.
type Event struct {
	// Kind is the event type.
	Kind EventKind
	// Stage is the owning pipeline stage.
	Stage string
	// Total is the stage's planned unit count (StageStart; -1 when unknown).
	Total int
	// Done is the number of units completed including this one
	// (MonthFitted/SeriesDone).
	Done int
	// Month is the fitted month (MonthFitted; -1 otherwise).
	Month int
	// Series identifies the finished series (SeriesDone), e.g.
	// "prescription:3/7".
	Series string
	// Err is non-empty when the unit degraded or failed; the unit's failure
	// is also recorded in Analysis.Failures.
	Err string
	// Duration is the unit's (or stage's, for StageEnd) wall-clock time. It
	// is the one nondeterministic field.
	Duration time.Duration
}

// String renders the event for logs.
func (e Event) String() string {
	switch e.Kind {
	case StageStart:
		return fmt.Sprintf("%s %s (%d units)", e.Kind, e.Stage, e.Total)
	case StageEnd:
		return fmt.Sprintf("%s %s (%v)", e.Kind, e.Stage, e.Duration)
	case MonthFitted:
		if e.Err != "" {
			return fmt.Sprintf("%s month %d: %s", e.Kind, e.Month, e.Err)
		}
		return fmt.Sprintf("%s month %d (%d/%d)", e.Kind, e.Month, e.Done, e.Total)
	default:
		if e.Err != "" {
			return fmt.Sprintf("%s %s: %s", e.Kind, e.Series, e.Err)
		}
		return fmt.Sprintf("%s %s (%d/%d)", e.Kind, e.Series, e.Done, e.Total)
	}
}

// Observer receives progress events. A nil Observer disables event delivery
// at zero cost. Deliveries are serialized — an Observer never runs
// concurrently with itself — and arrive in serial-equivalent order for any
// worker count. Observers should return quickly: a slow callback backpressures
// a Batch's ordered flush (not the workers' compute, but their completion
// accounting).
type Observer func(Event)

// guard wraps cb with panic isolation: the first panic in cb invokes onPanic
// (if non-nil) with the recovered value and permanently disables delivery,
// so a broken callback can cost its own stream but never a pipeline worker.
// A nil cb returns nil, keeping the disabled path free.
func guard[E any](cb func(E), onPanic func(r any)) func(E) {
	if cb == nil {
		return nil
	}
	var disabled atomic.Bool
	return func(e E) {
		if disabled.Load() {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				disabled.Store(true)
				if onPanic != nil {
					onPanic(r)
				}
			}
		}()
		cb(e)
	}
}

// Sink is one run's instrumentation stream. Callers build spans only, and
// the sink derives the progress events from them, so the two streams always
// agree. Each callback is panic-isolated; per-unit completions are delivered
// in index order (Batch); events stop once ctx is cancelled, while spans do
// not, so an interrupted run still flushes a valid partial trace. A nil
// *Sink, which NewSink returns without callbacks, makes every method a
// no-op that reads no clock and allocates nothing.
type Sink struct {
	ctx    context.Context
	events Observer
	spans  SpanObserver
}

// NewSink builds the stream delivering to events and spans (either may be
// nil). onPanic, if non-nil, is told "observer panicked: …" or "trace
// observer panicked: …" when a callback panics.
func NewSink(ctx context.Context, events Observer, spans SpanObserver, onPanic func(msg string)) *Sink {
	if events == nil && spans == nil {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	report := func(what string) func(any) {
		if onPanic == nil {
			return nil
		}
		return func(r any) { onPanic(fmt.Sprintf("%s panicked: %v", what, r)) }
	}
	return &Sink{ctx, guard(events, report("observer")), guard(spans, report("trace observer"))}
}

// Callbacks returns the guarded Observer and SpanObserver (nil when unset),
// for a layer that takes them; the Observer is not gated on cancellation.
func (s *Sink) Callbacks() (Observer, SpanObserver) {
	if s == nil {
		return nil, nil
	}
	return s.events, s.spans
}

// Span forwards one span as it comes, deriving no event.
func (s *Sink) Span(sp SpanEvent) {
	if s != nil && s.spans != nil {
		s.spans(sp)
	}
}

func (s *Sink) event(e Event) {
	if s.events != nil && s.ctx.Err() == nil {
		s.events(e)
	}
}

// StageStart delivers StageStart with the stage's planned unit count (-1
// when unknown) and returns the start time (zero on a nil sink).
func (s *Sink) StageStart(name string, total int) time.Time {
	if s == nil {
		return time.Time{}
	}
	s.event(Event{Kind: StageStart, Stage: name, Month: -1, Total: total})
	return time.Now()
}

// StageEnd closes the stage opened at start: it forwards the "stage/<name>"
// span and the StageEnd derived from it, which adds total and done.
func (s *Sink) StageEnd(name string, start time.Time, total, done int, err error) {
	if s == nil {
		return
	}
	sp := SpanEvent{Cat: "stage", Name: "stage/" + name, TID: LaneStage, Start: start, Duration: time.Since(start), Month: -1}
	if err != nil {
		sp.Err = err.Error()
	}
	s.Span(sp)
	s.event(Event{Kind: StageEnd, Stage: name, Month: -1, Total: total, Done: done, Err: sp.Err, Duration: sp.Duration})
}

// Batch orders the completions of total units: unit i's span is forwarded,
// and its event derived, once units 0..i-1 have been, whatever order
// concurrent workers report them in. Deliveries run under the batch's lock,
// which also serializes the callbacks. An "em/month" span yields MonthFitted
// (stage "model") and a "<stage>/series" span SeriesDone; Done counts the
// units delivered. Methods on a nil *Batch (a nil sink's) are no-ops.
type Batch struct {
	s       *Sink
	total   int
	mu      sync.Mutex
	next    int
	pending map[int]SpanEvent
}

// Batch opens an ordered batch of total units.
func (s *Sink) Batch(total int) *Batch {
	if s == nil {
		return nil
	}
	return &Batch{s: s, total: total, pending: make(map[int]SpanEvent)}
}

// Done reports unit i complete with its span; a zero span (a unit cancelled
// before it ran) only advances the order. A unit that never reports holds
// back every later one, but Done never blocks.
func (b *Batch) Done(i int, sp SpanEvent) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pending[i] = sp
	for sp, ok := b.pending[b.next]; ok; sp, ok = b.pending[b.next] {
		delete(b.pending, b.next)
		b.deliver(sp)
	}
}

// Next reports the next unit of a stream that already arrives in order.
func (b *Batch) Next(sp SpanEvent) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.deliver(sp)
}

func (b *Batch) deliver(sp SpanEvent) {
	b.next++
	if sp.Name == "" {
		return
	}
	b.s.Span(sp)
	e := Event{Kind: SeriesDone, Month: sp.Month, Series: sp.Series, Err: sp.Err, Duration: sp.Duration, Done: b.next, Total: b.total}
	var ok bool
	if e.Stage, ok = strings.CutSuffix(sp.Name, "/series"); sp.Name == "em/month" {
		e.Kind, e.Stage = MonthFitted, "model"
	} else if !ok {
		return
	}
	b.s.event(e)
}
