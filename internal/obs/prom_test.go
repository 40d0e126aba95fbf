package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// promTestRegistry builds a registry exercising every metric family plus the
// name characters that need sanitizing.
func promTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("em/months_fitted").Add(12)
	r.Counter("scan/fits").Add(345)
	r.Counter("pipeline/failures/detect").Inc()
	r.Gauge("faultpoint/trips").Set(2)
	h := r.Histogram("em/iterations_per_month", 1, 2, 5, 10, 20, 50)
	for _, v := range []float64{1, 3, 3, 7, 50, 60} {
		h.Observe(v)
	}
	r.Timer("time/stage/model").Observe(1500 * time.Millisecond)
	return r
}

// Prometheus text exposition format grammar, per the format spec
// (version 0.0.4).
var (
	promMetricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	promSample     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (NaN|[+-]Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)( [0-9]+)?$`)
	promLabelPair  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// validatePromExposition parses a text exposition document strictly enough
// that anything it accepts a Prometheus scraper accepts too: legal metric
// and label names, at most one HELP and one TYPE line per family, preceding
// its samples, each family's lines in one group, sample
// values parseable as Go floats, histogram bucket/count consistency, and a
// trailing newline. It returns the per-family sample counts.
func validatePromExposition(t *testing.T, doc string) map[string][]string {
	t.Helper()
	if doc == "" {
		t.Fatal("empty exposition")
	}
	if !strings.HasSuffix(doc, "\n") {
		t.Fatal("exposition must end with a newline")
	}
	typed := map[string]string{}     // family -> type
	helped := map[string]bool{}      // family -> HELP seen
	samples := map[string][]string{} // family -> sample lines
	seenSample := map[string]bool{}
	// A family's HELP, TYPE and sample lines form one group: once another
	// family's line follows, the family is closed.
	current, closed := "", map[string]bool{}
	enter := func(ln int, family string) {
		if family == current {
			return
		}
		if closed[family] {
			t.Fatalf("line %d: %s continues after another family's lines", ln+1, family)
		}
		closed[current] = true
		current = family
	}
	for ln, line := range strings.Split(strings.TrimSuffix(doc, "\n"), "\n") {
		switch {
		case line == "":
			t.Fatalf("line %d: blank line", ln+1)
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !promMetricName.MatchString(name) {
				t.Fatalf("line %d: bad HELP line %q", ln+1, line)
			}
			if helped[name] {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			enter(ln, name)
			helped[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			parts := strings.Fields(rest)
			if len(parts) != 2 || !promMetricName.MatchString(parts[0]) {
				t.Fatalf("line %d: bad TYPE line %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, parts[1])
			}
			if _, dup := typed[parts[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[0])
			}
			if seenSample[parts[0]] {
				t.Fatalf("line %d: TYPE for %s after its samples", ln+1, parts[0])
			}
			enter(ln, parts[0])
			typed[parts[0]] = parts[1]
		case strings.HasPrefix(line, "#"):
			// comment: fine
		default:
			m := promSample.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: unparseable sample %q", ln+1, line)
			}
			name, labels := m[1], m[3]
			if labels != "" {
				for _, pair := range strings.Split(labels, ",") {
					lm := promLabelPair.FindStringSubmatch(pair)
					if lm == nil {
						t.Fatalf("line %d: bad label pair %q", ln+1, pair)
					}
					if !promLabelName.MatchString(lm[1]) {
						t.Fatalf("line %d: illegal label name %q", ln+1, lm[1])
					}
				}
			}
			if v := m[4]; v != "NaN" && v != "+Inf" && v != "-Inf" {
				if _, err := strconv.ParseFloat(v, 64); err != nil {
					t.Fatalf("line %d: bad sample value %q", ln+1, v)
				}
			}
			// Resolve the family: histogram/summary samples use suffixed
			// names.
			family := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, suffix)
				if base != name {
					if ty := typed[base]; ty == "histogram" || ty == "summary" {
						family = base
						break
					}
				}
			}
			if _, ok := typed[family]; !ok {
				t.Fatalf("line %d: sample %q without a preceding TYPE", ln+1, name)
			}
			enter(ln, family)
			seenSample[family] = true
			samples[family] = append(samples[family], line)
		}
	}
	for fam := range typed {
		if !helped[fam] {
			t.Fatalf("family %s has TYPE but no HELP", fam)
		}
		if len(samples[fam]) == 0 {
			t.Fatalf("family %s has no samples", fam)
		}
	}
	return samples
}

// TestWritePrometheusExpositionFormat pins the acceptance criterion: the
// -prom output passes a strict exposition-format validation, every registry
// name sanitizes to a legal metric name, and histogram buckets stay
// cumulative and consistent.
func TestWritePrometheusExpositionFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := promTestRegistry().Snapshot().WritePrometheus(&buf, "mictrend"); err != nil {
		t.Fatal(err)
	}
	samples := validatePromExposition(t, buf.String())

	for _, fam := range []string{
		"mictrend_em_months_fitted_total",
		"mictrend_scan_fits_total",
		"mictrend_pipeline_failures_detect_total",
		"mictrend_faultpoint_trips",
		"mictrend_em_iterations_per_month",
		"mictrend_time_stage_model_seconds",
	} {
		if len(samples[fam]) == 0 {
			t.Errorf("family %s missing from exposition:\n%s", fam, buf.String())
		}
	}

	// Histogram consistency: bucket counts are cumulative, the +Inf bucket
	// equals _count, and _sum matches the observations.
	var lastCum, infCount, count int64
	var sum float64
	sawInf := false
	for _, line := range samples["mictrend_em_iterations_per_month"] {
		switch {
		case strings.Contains(line, "_bucket{"):
			var c int64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &c); err != nil {
				t.Fatal(err)
			}
			if c < lastCum {
				t.Fatalf("bucket counts not cumulative: %q after %d", line, lastCum)
			}
			lastCum = c
			if strings.Contains(line, `le="+Inf"`) {
				sawInf, infCount = true, c
			}
		case strings.Contains(line, "_sum "):
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &sum)
		case strings.Contains(line, "_count "):
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &count)
		}
	}
	if !sawInf {
		t.Fatal("histogram lacks a +Inf bucket")
	}
	if infCount != count || count != 6 {
		t.Fatalf("+Inf bucket %d, _count %d, want both 6", infCount, count)
	}
	if sum != 124 {
		t.Fatalf("_sum = %v, want 124", sum)
	}

	// Determinism: two expositions of the same deterministic snapshot are
	// byte-identical.
	var buf2 bytes.Buffer
	if err := promTestRegistry().Snapshot().WritePrometheus(&buf2, "mictrend"); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("exposition not deterministic")
	}
}

// TestPromNameSanitization pins the name mapping for the characters the
// registry actually uses plus the pathological ones.
func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"em/months_fitted": "em_months_fitted",
		"time/stage/model": "time_stage_model",
		"9lives":           "_9lives",
		"a-b.c d":          "a_b_c_d",
		"ok_name:sub":      "ok_name:sub",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
		if !promMetricName.MatchString(promName(in)) {
			t.Errorf("promName(%q) = %q is not a legal metric name", in, promName(in))
		}
	}
}

// TestPrometheusHandler pins the HTTP bridge: content type and a valid body,
// including for a nil registry.
func TestPrometheusHandler(t *testing.T) {
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	promTestRegistry().PrometheusHandler("mictrend").ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	validatePromExposition(t, rec.Body.String())

	var nilReg *Registry
	rec = httptest.NewRecorder()
	nilReg.PrometheusHandler("mictrend").ServeHTTP(rec, req)
	if rec.Body.Len() != 0 && !strings.HasSuffix(rec.Body.String(), "\n") {
		t.Fatalf("nil registry exposition malformed: %q", rec.Body.String())
	}
}

// expvarRuns numbers TestPublishExpvar's runs in this process.
var expvarRuns atomic.Int64

// TestPublishExpvar pins the /debug/vars bridge: the published variable
// renders the live snapshot as valid JSON.
func TestPublishExpvar(t *testing.T) {
	r := promTestRegistry()
	// Expvar names are process-wide: each run of the test publishes its own,
	// so -count=N repeats it.
	name := fmt.Sprintf("mictrend_test_publish_expvar_%d", expvarRuns.Add(1))
	r.PublishExpvar(name)
	v := expvar.Get(name)
	if v == nil {
		t.Fatal("expvar not published")
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar value is not a JSON snapshot: %v", err)
	}
	if snap.Counters["em/months_fitted"] != 12 {
		t.Fatalf("snapshot counters = %v", snap.Counters)
	}
	// Live: later updates show up on the next read.
	r.Counter("em/months_fitted").Add(1)
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["em/months_fitted"] != 13 {
		t.Fatalf("expvar snapshot is not live: %v", snap.Counters["em/months_fitted"])
	}
}

// TestPromFloat pins the special-value rendering.
func TestPromFloat(t *testing.T) {
	if promFloat(math.Inf(1)) != "+Inf" || promFloat(math.Inf(-1)) != "-Inf" || promFloat(math.NaN()) != "NaN" {
		t.Fatal("special float rendering broken")
	}
	if promFloat(1.5) != "1.5" || promFloat(0) != "0" {
		t.Fatalf("float rendering: %q %q", promFloat(1.5), promFloat(0))
	}
}

// promLabeledTestRegistry builds a registry exercising the labeled families,
// including label values that need exposition escaping (backslash, double
// quote, newline) and a label name that needs sanitizing.
func promLabeledTestRegistry() *Registry {
	r := NewRegistry()
	cv := r.CounterVec("http/requests", "route", "method", "code")
	cv.With("/v1/epoch", "GET", "200").Add(41)
	cv.With("/v1/ingest", "POST", "429").Add(2)
	cv.With("other", "GET", "404").Inc()
	cv.With(`back\slash"quote`+"\nnewline", "GET", "200").Inc()
	r.GaugeVec("http/in_flight_by_route", "bad-label.name").With("/v1/series").Set(3)
	hv := r.HistogramVec("http/request_duration_seconds", []float64{0.005, 0.05, 0.5}, "route")
	for _, v := range []float64{0.001, 0.02, 0.3, 2} {
		hv.With("/v1/epoch").Observe(v)
	}
	hv.With("/v1/ingest").Observe(0.04)
	return r
}

// TestWritePrometheusLabeledExposition extends the conformance check to
// labeled families: the exposition with CounterVec/GaugeVec/HistogramVec
// samples passes the same strict parser, series within a family come out in
// stable sorted-label order, label names sanitize, and escaped label values
// survive the round trip.
func TestWritePrometheusLabeledExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := promLabeledTestRegistry().Snapshot().WritePrometheus(&buf, "mictrend"); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	samples := validatePromExposition(t, doc)

	reqs := samples["mictrend_http_requests_total"]
	if len(reqs) != 4 {
		t.Fatalf("http_requests_total has %d series, want 4:\n%v", len(reqs), reqs)
	}
	// Stable ordering: series sorted by label values ("/v1/epoch" < "/v1/ingest"
	// < "back\..." < "other").
	wantOrder := []string{`route="/v1/epoch"`, `route="/v1/ingest"`, `route="back`, `route="other"`}
	for i, line := range reqs {
		if !strings.Contains(line, wantOrder[i]) {
			t.Fatalf("series %d = %q, want it to carry %q", i, line, wantOrder[i])
		}
	}
	// Escaping: the raw backslash/quote/newline value renders escaped.
	if !strings.Contains(doc, `route="back\\slash\"quote\nnewline"`) {
		t.Fatalf("escaped label value missing:\n%s", doc)
	}
	// Label name sanitization.
	if !strings.Contains(doc, `bad_label_name="/v1/series"`) {
		t.Fatalf("label name not sanitized:\n%s", doc)
	}

	// Labeled histogram: per-series cumulative buckets, +Inf == _count.
	var epochInf, epochCount int64
	for _, line := range samples["mictrend_http_request_duration_seconds"] {
		if !strings.Contains(line, `route="/v1/epoch"`) {
			continue
		}
		val := line[strings.LastIndex(line, " ")+1:]
		switch {
		case strings.Contains(line, `le="+Inf"`):
			fmt.Sscanf(val, "%d", &epochInf)
		case strings.Contains(line, "_count{"):
			fmt.Sscanf(val, "%d", &epochCount)
		}
	}
	if epochInf != 4 || epochCount != 4 {
		t.Fatalf("+Inf bucket %d, _count %d, want both 4", epochInf, epochCount)
	}

	// Determinism: two expositions of independently built registries are
	// byte-identical.
	var buf2 bytes.Buffer
	if err := promLabeledTestRegistry().Snapshot().WritePrometheus(&buf2, "mictrend"); err != nil {
		t.Fatal(err)
	}
	if doc != buf2.String() {
		t.Fatal("labeled exposition not deterministic")
	}
}

// TestOneNameOneFamily pins that a name is one metric family per kind: an
// accessor whose label count disagrees with the existing family gets nil
// and discards writes, so the exposition carries each name once.
func TestOneNameOneFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(2)
	if r.CounterVec("x", "l") != nil {
		t.Fatal("CounterVec on a plain counter's name must return nil")
	}
	r.CounterVec("x", "l").With("a").Inc()
	r.GaugeVec("g", "l").With("a").Set(1)
	if r.Gauge("g") != nil {
		t.Fatal("Gauge on a labeled family's name must return nil")
	}
	r.Gauge("g").Set(5)
	r.Histogram("h", 1).Observe(0.5)
	if r.HistogramVec("h", []float64{1}, "l") != nil {
		t.Fatal("HistogramVec on a plain histogram's name must return nil")
	}
	if r.CounterVec("v", "a") != r.CounterVec("v", "b") {
		t.Fatal("a family keeps its label names; same arity returns it")
	}
	r.CounterVec("v", "b").With("1").Inc()

	// Across kinds: a gauge and a histogram would both render m_y, a counter
	// and a gauge m_z_total, a histogram's samples the gauges m_w_bucket and
	// m_w_count, and a timer m_u_seconds next to a counter's m_u_seconds_total
	// does not clash. The later metric gets nil and renders nothing.
	r.Gauge("y").Set(3)
	if r.Histogram("y", 1) != nil || r.HistogramVec("y", []float64{1}, "l") != nil {
		t.Fatal("Histogram on a gauge's exposition name must return nil")
	}
	r.Histogram("y", 1).Observe(0.5)
	r.Counter("z").Add(4)
	if r.Gauge("z_total") != nil || r.GaugeVec("z/total", "l") != nil {
		t.Fatal("Gauge on a counter's exposition name must return nil")
	}
	r.Gauge("z_total").Set(9)
	r.Gauge("w_bucket").Set(1)
	if r.Histogram("w", 1) != nil {
		t.Fatal("Histogram whose bucket samples are a gauge's name must return nil")
	}
	r.Histogram("k", 1).Observe(2)
	if r.Gauge("k_count") != nil || r.Counter("k_sum") == nil || r.Timer("k") == nil {
		t.Fatal("only a name the histogram renders is taken")
	}
	if r.Timer("u") == nil || r.Counter("u_seconds") == nil || r.Gauge("u_seconds_sum") != nil {
		t.Fatal("a timer takes its _seconds family and sample names only")
	}
	if r.Counter("a/b") == nil || r.Counter("a_b") != nil {
		t.Fatal("a counter whose name sanitizes to another's must return nil")
	}

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf, "m"); err != nil {
		t.Fatal(err)
	}
	samples := validatePromExposition(t, buf.String())
	if got := samples["m_x_total"]; !reflect.DeepEqual(got, []string{"m_x_total 2"}) {
		t.Fatalf("m_x_total samples = %q", got)
	}
	if got := samples["m_g"]; !reflect.DeepEqual(got, []string{`m_g{l="a"} 1`}) {
		t.Fatalf("m_g samples = %q", got)
	}
	if got := samples["m_y"]; !reflect.DeepEqual(got, []string{"m_y 3"}) {
		t.Fatalf("m_y samples = %q", got)
	}
	if got := samples["m_z_total"]; !reflect.DeepEqual(got, []string{"m_z_total 4"}) {
		t.Fatalf("m_z_total samples = %q", got)
	}
}
