package obs

// Metric families: a fixed list of label names and one child Counter, Gauge
// or Histogram per distinct tuple of label values ("http_requests_total" by
// route/method/status). A plain metric is the one child of a family without
// labels: Registry.Counter(name) is Registry.CounterVec(name).With(). The
// family is the registry's only metric container, and it keeps the
// registry's contracts:
//
//   - Disabled means free. A nil Registry returns nil vectors, and every
//     method on a nil vector is a no-op returning a nil child handle — so
//     instrumented code resolves a vector once and calls With on every
//     request without a single allocation when observability is off.
//   - Deterministic snapshots. Children are keyed by their label values;
//     snapshots render each family's series in sorted label order, so two
//     snapshots of the same state are byte-identical documents.
//   - Safe under -race. Child lookup is mutex-guarded; child mutation is
//     the atomic Counter/Gauge/Histogram machinery.
//
// Label sets are meant to stay small and bounded (routes, methods, status
// codes) — every distinct label combination is one live child, and nothing
// expires them. Callers bound cardinality (e.g. the HTTP middleware
// normalizes unknown paths to one "other" route) rather than the registry.

import (
	"sort"
	"strings"
	"sync"
)

// labelKey joins label values into a map key. Values are joined with 0xFF,
// a byte that cannot appear in UTF-8 text, so distinct value tuples never
// collide.
func labelKey(values []string) string {
	return strings.Join(values, "\xff")
}

// family is a metric family of children of type C: its label names, fixed
// at creation, and its children by label values.
type family[C any] struct {
	labels   []string
	newChild func() *C
	mu       sync.Mutex
	children map[string]*C
}

func newFamily[C any](labels []string, newChild func() *C) *family[C] {
	return &family[C]{labels: append([]string(nil), labels...), newChild: newChild, children: make(map[string]*C)}
}

// with returns the child for the given label values, creating it on first
// use (nil on a nil family or a label-arity mismatch).
func (f *family[C]) with(values []string) *C {
	if f == nil || len(values) != len(f.labels) {
		return nil
	}
	k := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[k]
	if !ok {
		c = f.newChild()
		f.children[k] = c
	}
	return c
}

// zero is the child constructor of the families whose zero child is ready.
func zero[C any]() *C { return new(C) }

// CounterVec is a family of Counters indexed by label values. A nil
// CounterVec hands out nil Counters, which discard writes.
type CounterVec family[Counter]

// With returns the child counter for the given label values, creating it on
// first use (nil on a nil vector or a label-arity mismatch).
func (v *CounterVec) With(values ...string) *Counter { return (*family[Counter])(v).with(values) }

// GaugeVec is a family of Gauges indexed by label values. A nil GaugeVec
// hands out nil Gauges, which discard writes.
type GaugeVec family[Gauge]

// With returns the child gauge for the given label values, creating it on
// first use (nil on a nil vector or a label-arity mismatch).
func (v *GaugeVec) With(values ...string) *Gauge { return (*family[Gauge])(v).with(values) }

// HistogramVec is a family of Histograms indexed by label values, sharing
// one set of upper bounds. A nil HistogramVec hands out nil Histograms,
// which discard observations.
type HistogramVec family[Histogram]

// With returns the child histogram for the given label values, creating it
// on first use (nil on a nil vector or a label-arity mismatch).
func (v *HistogramVec) With(values ...string) *Histogram { return (*family[Histogram])(v).with(values) }

// The exposition names of each kind's metrics: a metric named n renders
// its family and samples as promName(n) plus these suffixes (see
// WritePrometheus).
var (
	counterNames   = []string{"_total"}
	gaugeNames     = []string{""}
	histogramNames = []string{"", "_bucket", "_sum", "_count"}
	timerNames     = []string{"_seconds", "_seconds_sum", "_seconds_count"}
)

// lookup returns m's metric under name, creating it with mk on first use;
// a hit builds nothing. A miss creates nothing and returns nil when another
// metric already renders one of the exposition names the new one would
// (promName(name) plus each of suffixes), so one name is never two
// families in an exposition.
func lookup[V any](r *Registry, m map[string]*V, suffixes []string, name string, mk func() *V) *V {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := m[name]; ok {
		return v
	}
	base := promName(name)
	for _, s := range suffixes {
		if r.exposed[base+s] {
			return nil
		}
	}
	for _, s := range suffixes {
		r.exposed[base+s] = true
	}
	v := mk()
	m[name] = v
	return v
}

// lookupFamily is lookup for a family with the given label names: nil when
// the family under name has a different number of labels.
func lookupFamily[C any](r *Registry, m map[string]*family[C], suffixes []string, name string, labels []string, mk func() *family[C]) *family[C] {
	if f := lookup(r, m, suffixes, name, mk); f != nil && len(f.labels) == len(labels) {
		return f
	}
	return nil
}

// CounterVec returns the named counter family with the given label names,
// creating it on first use (nil on a nil registry, when the family has a
// different number of labels, or when another metric renders its
// exposition name). Later calls return the existing family regardless of
// label names.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return (*CounterVec)(lookupFamily(r, r.counters, counterNames, name, labels, func() *family[Counter] {
		return newFamily(labels, zero[Counter])
	}))
}

// GaugeVec returns the named gauge family with the given label names,
// creating it on first use (nil on a nil registry, when the family has a
// different number of labels, or when another metric renders its
// exposition name).
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return (*GaugeVec)(lookupFamily(r, r.gauges, gaugeNames, name, labels, func() *family[Gauge] {
		return newFamily(labels, zero[Gauge])
	}))
}

// HistogramVec returns the named histogram family with the given ascending
// upper bounds and label names, creating it on first use (nil on a nil
// registry, when the family has a different number of labels, or when
// another metric renders one of its exposition names). Later calls return
// the existing family regardless of bounds.
func (r *Registry) HistogramVec(name string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return (*HistogramVec)(lookupFamily(r, r.histograms, histogramNames, name, labels, func() *family[Histogram] {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		return newFamily(labels, func() *Histogram {
			return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		})
	}))
}

// LabeledValue is one child of a labeled counter or gauge family in a
// snapshot: the label values (in the family's label-name order) and the
// child's value.
type LabeledValue struct {
	Labels []string `json:"labels"`
	Value  int64    `json:"value"`
}

// LabeledHistogram is one child of a labeled histogram family in a snapshot.
type LabeledHistogram struct {
	Labels []string `json:"labels"`
	HistogramSnapshot
}

// VecSnapshot is a labeled counter or gauge family at snapshot time, its
// children sorted by label values so the snapshot is deterministic.
type VecSnapshot struct {
	LabelNames []string       `json:"label_names"`
	Values     []LabeledValue `json:"values"`
}

// HistVecSnapshot is a labeled histogram family at snapshot time.
type HistVecSnapshot struct {
	LabelNames []string           `json:"label_names"`
	Values     []LabeledHistogram `json:"values"`
}

// labeled is one child's state P with its label values.
type labeled[P any] struct {
	labels []string
	state  P
}

// snapshotKind walks one kind's families once; the caller holds r.mu. A
// family without labels puts its child's state in plain. A labeled family
// becomes, through vec, the entry of the returned map under its name, with
// its children in sorted label order.
func snapshotKind[C, P, V any](fams map[string]*family[C], plain map[string]P, state func(*C) P, vec func(labelNames []string, series []labeled[P]) V) map[string]V {
	vecs := map[string]V{}
	for name, f := range fams {
		if len(f.labels) == 0 {
			plain[name] = state(f.with(nil))
			continue
		}
		var series []labeled[P]
		f.mu.Lock()
		for k, c := range f.children {
			series = append(series, labeled[P]{labels: strings.Split(k, "\xff"), state: state(c)})
		}
		f.mu.Unlock()
		sortLabeled(series)
		vecs[name] = vec(append([]string(nil), f.labels...), series)
	}
	return vecs
}

func intVec(labelNames []string, series []labeled[int64]) VecSnapshot {
	vs := VecSnapshot{LabelNames: labelNames}
	for _, c := range series {
		vs.Values = append(vs.Values, LabeledValue{Labels: c.labels, Value: c.state})
	}
	return vs
}

func histVec(labelNames []string, series []labeled[HistogramSnapshot]) HistVecSnapshot {
	vs := HistVecSnapshot{LabelNames: labelNames}
	for _, c := range series {
		vs.Values = append(vs.Values, LabeledHistogram{Labels: c.labels, HistogramSnapshot: c.state})
	}
	return vs
}

// sortLabeled orders a family's children lexicographically by label values.
func sortLabeled[P any](series []labeled[P]) {
	sort.Slice(series, func(a, b int) bool {
		la, lb := series[a].labels, series[b].labels
		for i := range la {
			if i >= len(lb) {
				return false
			}
			if la[i] != lb[i] {
				return la[i] < lb[i]
			}
		}
		return len(la) < len(lb)
	})
}
