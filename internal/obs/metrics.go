// Package obs is the pipeline's zero-dependency observability layer: typed
// counters, gauges, histograms, and wall-clock timers collected in a
// Registry, plus the instrumentation stream (events.go): timed spans and the
// structured progress events a Sink derives from them for a user Observer.
//
// Design constraints, in order:
//
//  1. Disabled means free. Every handle type is nil-safe — methods on a nil
//     *Counter/*Gauge/*Histogram/*Timer are no-ops, and a nil *Registry
//     returns nil handles — so instrumented code holds one pointer per metric
//     and pays a nil check (no allocation, no branch into the metrics path)
//     when observability is off. Hot kernels (the Kalman likelihood filter,
//     the EM sweep) are not instrumented at all; instrumentation reads
//     aggregate statistics at stage boundaries instead.
//
//  2. Deterministic counts. Counter, Gauge, and Histogram values in a
//     pipeline run depend only on the work performed, never on worker
//     scheduling: all count-valued metrics are accumulated via commutative
//     adds of exact integers, so a Snapshot is identical for any
//     -workers/-scan-workers split. Wall-clock Timers are inherently
//     nondeterministic and live in a separate Snapshot section
//     (Snapshot.Timings) that Deterministic() strips.
//
//  3. Safe under -race. All mutation is atomic or mutex-guarded; Snapshot
//     may be taken while workers are still writing.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; a nil Counter discards writes.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on a nil receiver).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins integer metric. The zero value is ready to use;
// a nil Gauge discards writes.
type Gauge struct {
	v atomic.Int64
}

// Set stores v (no-op on a nil receiver).
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta, which may be negative — the shape in-flight
// counts need (no-op on a nil receiver).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the stored value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates a distribution over fixed upper-bound buckets. A nil
// Histogram discards observations. Observing exact integers (iteration
// counts, fit counts) keeps Sum exact and therefore deterministic under
// concurrent accumulation; fractional observations may lose associativity in
// Sum's last bits.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []int64   // len(bounds)+1
	count  int64
	sum    float64
	min    float64
	max    float64
}

// Observe records v (no-op on a nil receiver).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// snapshot copies the histogram's state with cumulative bucket counts.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	hs := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		hs.Buckets = append(hs.Buckets, BucketCount{Le: b, Count: cum})
	}
	cum += h.counts[len(h.bounds)]
	hs.Buckets = append(hs.Buckets, BucketCount{Le: math.Inf(1), Count: cum})
	return hs
}

// Timer accumulates wall-clock durations. A nil Timer discards observations.
// Timers are the one nondeterministic metric family; snapshots report them
// separately so the deterministic sections stay comparable across runs.
type Timer struct {
	n  atomic.Int64
	ns atomic.Int64
}

// Observe adds one duration (no-op on a nil receiver).
func (t *Timer) Observe(d time.Duration) {
	if t != nil {
		t.n.Add(1)
		t.ns.Add(int64(d))
	}
}

// Total returns the accumulated duration (0 on a nil receiver).
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}

// Count returns how many durations were observed (0 on a nil receiver).
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.n.Load()
}

// Registry holds named metrics. A nil Registry returns nil handles from
// every accessor, so callers resolve handles once and instrument
// unconditionally. Accessors create metrics on first use and return the
// same handle for the same name afterwards; all methods are goroutine-safe.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	timers   map[string]*Timer

	// Labeled families (vec.go), allocated lazily so a registry that never
	// uses labels pays nothing for them.
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
	histVecs    map[string]*HistogramVec
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns the named counter, creating it on first use (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending upper bounds on first use (nil on a nil registry). Later calls
// return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Timer returns the named timer, creating it on first use (nil on a nil
// registry).
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// BucketCount is one histogram bucket in a snapshot: the count of
// observations with value ≤ Le (Le is +Inf for the overflow bucket,
// serialized as the string "+Inf").
type BucketCount struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// MarshalJSON renders the +Inf bound as a string (JSON has no Inf literal).
func (b BucketCount) MarshalJSON() ([]byte, error) {
	type alias struct {
		Le    any   `json:"le"`
		Count int64 `json:"count"`
	}
	le := any(b.Le)
	if math.IsInf(b.Le, 1) {
		le = "+Inf"
	}
	return json.Marshal(alias{Le: le, Count: b.Count})
}

// UnmarshalJSON accepts both numeric bounds and the "+Inf" string form
// MarshalJSON emits, so snapshot JSON round-trips.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	type alias struct {
		Le    json.RawMessage `json:"le"`
		Count int64           `json:"count"`
	}
	var a alias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	b.Count = a.Count
	var s string
	if err := json.Unmarshal(a.Le, &s); err == nil {
		if s == "+Inf" {
			b.Le = math.Inf(1)
			return nil
		}
		return fmt.Errorf("obs: bucket bound %q is not a number or \"+Inf\"", s)
	}
	return json.Unmarshal(a.Le, &b.Le)
}

// HistogramSnapshot is a histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Min     float64       `json:"min"`
	Max     float64       `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// TimingSnapshot is a timer's state at snapshot time.
type TimingSnapshot struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MeanNS  int64 `json:"mean_ns"`
}

// Snapshot is a point-in-time copy of a registry. The Counters, Gauges, and
// Histograms sections are deterministic for a deterministic workload; the
// Timings section is wall-clock and varies run to run (Deterministic strips
// it). The labeled-vector sections render each family's children in sorted
// label order, so two snapshots of the same state compare byte-identical;
// note that labeled families fed wall-clock values (the HTTP duration
// histograms) are deterministic in structure but not in content.
type Snapshot struct {
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]int64             `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
	CounterVecs   map[string]VecSnapshot       `json:"counter_vecs,omitempty"`
	GaugeVecs     map[string]VecSnapshot       `json:"gauge_vecs,omitempty"`
	HistogramVecs map[string]HistVecSnapshot   `json:"histogram_vecs,omitempty"`
	Timings       map[string]TimingSnapshot    `json:"timings,omitempty"`
}

// Snapshot copies the registry's current state. Safe to call concurrently
// with metric updates; a nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
		Timings:    map[string]TimingSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	if len(r.counterVecs)+len(r.gaugeVecs)+len(r.histVecs) > 0 {
		s.CounterVecs = map[string]VecSnapshot{}
		s.GaugeVecs = map[string]VecSnapshot{}
		s.HistogramVecs = map[string]HistVecSnapshot{}
		r.snapshotVecs(&s)
	}
	for name, t := range r.timers {
		ts := TimingSnapshot{Count: t.Count(), TotalNS: int64(t.Total())}
		if ts.Count > 0 {
			ts.MeanNS = ts.TotalNS / ts.Count
		}
		s.Timings[name] = ts
	}
	return s
}

// Deterministic returns the snapshot without its wall-clock Timings section:
// the remainder is identical across runs and worker splits for a
// deterministic workload.
func (s Snapshot) Deterministic() Snapshot {
	s.Timings = nil
	return s
}

// WriteJSON renders the snapshot as indented JSON with lexically sorted keys
// (encoding/json sorts map keys), so two deterministic snapshots compare as
// byte-identical documents.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
