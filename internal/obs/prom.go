package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for a Registry snapshot,
// so a run's metrics can be scraped without adding a client-library
// dependency. The mapping:
//
//   - counters  → "<ns>_<name>_total" counter samples
//   - gauges    → "<ns>_<name>" gauge samples
//   - histograms→ classic Prometheus histograms: cumulative
//     "<ns>_<name>_bucket{le="…"}" samples plus _sum and _count
//   - timers    → "<ns>_<name>_seconds" summaries (_sum in seconds, _count)
//
// Slashes and other characters outside [a-zA-Z0-9_:] in metric names are
// rewritten to underscores, so "em/months_fitted" scrapes as
// "mictrend_em_months_fitted_total".

// promName sanitizes a registry metric name into a legal Prometheus metric
// name component: every byte outside [a-zA-Z0-9_:] becomes '_', and a leading
// digit is prefixed with '_'.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a sample value the exposition format accepts ("+Inf",
// "-Inf", "NaN", or a Go float literal).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}

// promEscapeHelp escapes a HELP text per the exposition format (backslash and
// newline only; HELP text is not quoted).
func promEscapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promEscapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline (label values are double-quoted).
func promEscapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promLabels renders a label set as `{name="value",…}`, sanitizing names and
// escaping values. extra appends one more pair (the histogram "le" bound).
func promLabels(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(promName(n))
		b.WriteString(`="`)
		b.WriteString(promEscapeLabel(v))
		b.WriteString(`"`)
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(promEscapeLabel(extraValue))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format under the given namespace prefix (e.g. "mictrend"). Metric families
// are emitted in sorted name order, each with its HELP and TYPE line, so the
// output is deterministic for a deterministic snapshot (timer families vary
// with wall-clock, as in WriteJSON). The output ends with a newline, as the
// format requires.
func (s Snapshot) WritePrometheus(w io.Writer, namespace string) error {
	ns := promName(namespace)
	if ns != "" {
		ns += "_"
	}
	var b strings.Builder

	family := func(name, typ, help string) string {
		fmt.Fprintf(&b, "# HELP %s %s\n", name, promEscapeHelp(help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		return name
	}

	// A plain metric renders as the one unlabeled child of its family.
	ints := func(name, suffix, typ string, v VecSnapshot) {
		fam := family(ns+promName(name)+suffix, typ, "mictrend "+typ+" "+name)
		for _, lv := range v.Values {
			fmt.Fprintf(&b, "%s%s %d\n", fam, promLabels(v.LabelNames, lv.Labels, "", ""), lv.Value)
		}
	}
	hists := func(name string, v HistVecSnapshot) {
		fam := family(ns+promName(name), "histogram", "mictrend histogram "+name)
		for _, lh := range v.Values {
			for _, bkt := range lh.Buckets {
				fmt.Fprintf(&b, "%s_bucket%s %d\n", fam,
					promLabels(v.LabelNames, lh.Labels, "le", promFloat(bkt.Le)), bkt.Count)
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", fam, promLabels(v.LabelNames, lh.Labels, "", ""), promFloat(lh.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", fam, promLabels(v.LabelNames, lh.Labels, "", ""), lh.Count)
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		ints(name, "_total", "counter", VecSnapshot{Values: []LabeledValue{{Value: s.Counters[name]}}})
	}
	for _, name := range sortedKeys(s.Gauges) {
		ints(name, "", "gauge", VecSnapshot{Values: []LabeledValue{{Value: s.Gauges[name]}}})
	}
	for _, name := range sortedKeys(s.Histograms) {
		hists(name, HistVecSnapshot{Values: []LabeledHistogram{{HistogramSnapshot: s.Histograms[name]}}})
	}
	for _, name := range sortedKeys(s.CounterVecs) {
		ints(name, "_total", "counter", s.CounterVecs[name])
	}
	for _, name := range sortedKeys(s.GaugeVecs) {
		ints(name, "", "gauge", s.GaugeVecs[name])
	}
	for _, name := range sortedKeys(s.HistogramVecs) {
		hists(name, s.HistogramVecs[name])
	}
	for _, name := range sortedKeys(s.Timings) {
		t := s.Timings[name]
		fam := family(ns+promName(name)+"_seconds", "summary", "mictrend timer "+name)
		fmt.Fprintf(&b, "%s_sum %s\n", fam, promFloat(float64(t.TotalNS)/1e9))
		fmt.Fprintf(&b, "%s_count %d\n", fam, t.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PrometheusHandler returns an http.Handler exposing the registry in the
// Prometheus text exposition format, for mounting at /metrics alongside a
// pprof server. Each scrape takes a fresh snapshot; a nil registry serves an
// empty (but valid) exposition.
func (r *Registry) PrometheusHandler(namespace string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Snapshot().WritePrometheus(w, namespace)
	})
}

// PublishExpvar publishes the registry under name in the process-global
// expvar namespace, so an HTTP server with the expvar handler (any server on
// http.DefaultServeMux, e.g. the pprof one) also serves the registry's live
// snapshot at /debug/vars for free. Each read takes a fresh snapshot.
// Expvar names are process-global and publishing the same name twice panics
// (expvar's contract), so call this once per process per name; a nil
// registry publishes empty snapshots.
func (r *Registry) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
