package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mictrend/internal/faultpoint"
	"mictrend/internal/mic"
	"mictrend/internal/obs"
)

// postMonth ingests month i of src through the HTTP surface, asserting index
// want, and returns the status code and decoded (or raw) body.
func postMonth(t *testing.T, url string, src *mic.Dataset, i, want int) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := mic.Write(&buf, monthSlice(t, src, i)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/ingest?month="+strconv.Itoa(want), "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

func TestHTTPIngestAndQuery(t *testing.T) {
	// Six months: the state-space detection needs that many points before a
	// series scan can succeed, and the failures list empties out.
	const months = 6
	src := genServeCorpus(t, months)
	c, _, _ := newTestCore(t, t.TempDir())
	defer c.Close()
	srv := httptest.NewServer(NewHandler(c, HandlerOptions{}))
	defer srv.Close()
	waitReady(t, c)

	if code, _, _ := get(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if code, _, _ := get(t, srv.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d after the first epoch", code)
	}

	for i := 0; i < months; i++ {
		code, body := postMonth(t, srv.URL, src, i, i)
		if code != http.StatusOK {
			t.Fatalf("ingest month %d = %d: %s", i, code, body)
		}
		var r ingestResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if r.Month != i {
			t.Fatalf("ingest landed at %d, want %d", r.Month, i)
		}
	}

	code, body, _ := get(t, srv.URL+"/v1/epoch")
	if code != http.StatusOK {
		t.Fatalf("/v1/epoch = %d", code)
	}
	var er epochResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Months != months || er.Seq != months+1 {
		t.Fatalf("/v1/epoch = %+v, want %d months at seq %d", er, months, months+1)
	}

	code, body, _ = get(t, srv.URL+"/v1/detections")
	if code != http.StatusOK {
		t.Fatalf("/v1/detections = %d", code)
	}
	var dr detectionsResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Detections) == 0 {
		t.Fatalf("no detections in a %d-month corpus with fitted series", months)
	}
	for _, d := range dr.Detections {
		if d.Key == "" || d.Kind == "" {
			t.Fatalf("detection missing key/kind: %+v", d)
		}
		if d.Series != nil {
			t.Fatal("list endpoint must not inline series data")
		}
	}

	// The detected=true filter is a strict subset.
	code, body, _ = get(t, srv.URL+"/v1/detections?detected=true")
	if code != http.StatusOK {
		t.Fatalf("filtered detections = %d", code)
	}
	var fr detectionsResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Detections) > len(dr.Detections) {
		t.Fatal("filter grew the detection list")
	}
	for _, d := range fr.Detections {
		if !d.Detected {
			t.Fatalf("undetected series %s passed the detected filter", d.Key)
		}
	}

	// One series, by its stable key, with data inlined.
	key := dr.Detections[0].Key
	code, body, _ = get(t, srv.URL+"/v1/series?key="+key)
	if code != http.StatusOK {
		t.Fatalf("/v1/series?key=%s = %d", key, code)
	}
	var sd detectionJSON
	if err := json.Unmarshal(body, &sd); err != nil {
		t.Fatal(err)
	}
	if sd.Key != key || len(sd.Series) != months {
		t.Fatalf("series %s = key %q with %d points, want %d", key, sd.Key, len(sd.Series), months)
	}
	if code, _, _ := get(t, srv.URL+"/v1/series?key=disease:9999"); code != http.StatusNotFound {
		t.Fatalf("unknown series = %d, want 404", code)
	}
	if code, _, _ := get(t, srv.URL+"/v1/series"); code != http.StatusBadRequest {
		t.Fatalf("missing key = %d, want 400", code)
	}

	code, body, _ = get(t, srv.URL+"/v1/failures")
	if code != http.StatusOK {
		t.Fatalf("/v1/failures = %d", code)
	}
	var fl failuresResponse
	if err := json.Unmarshal(body, &fl); err != nil {
		t.Fatal(err)
	}
	if len(fl.Failures) != 0 {
		t.Fatalf("clean corpus reported failures: %+v", fl.Failures)
	}

	code, body, _ = get(t, srv.URL+"/v1/recovery")
	if code != http.StatusOK {
		t.Fatalf("/v1/recovery = %d", code)
	}
	var rep RecoveryReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}

	code, body, _ = get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, metric := range []string{"mictrend_serve_epoch", "mictrend_serve_months"} {
		if !strings.Contains(string(body), metric) {
			t.Fatalf("exposition missing %s", metric)
		}
	}
}

func TestHTTPIngestErrorMapping(t *testing.T) {
	src := genServeCorpus(t, 3)
	c, _, _ := newTestCore(t, t.TempDir())
	defer c.Close()
	srv := httptest.NewServer(NewHandler(c, HandlerOptions{}))
	defer srv.Close()
	waitReady(t, c)

	if code, _ := postMonth(t, srv.URL, src, 0, 0); code != http.StatusOK {
		t.Fatalf("seed ingest = %d", code)
	}

	// Wrong method.
	if code, _, _ := get(t, srv.URL+"/v1/ingest"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest = %d, want 405", code)
	}
	// Bad month parameter.
	resp, err := http.Post(srv.URL+"/v1/ingest?month=abc", "", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("month=abc = %d, want 400", resp.StatusCode)
	}
	// Unparseable body.
	resp, err = http.Post(srv.URL+"/v1/ingest", "", strings.NewReader("not json\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body = %d, want 400", resp.StatusCode)
	}
	// Gap ahead of the fold position.
	if code, _ := postMonth(t, srv.URL, src, 1, 7); code != http.StatusConflict {
		t.Fatalf("gap = %d, want 409", code)
	}
	// Idempotent replay of a committed month.
	if code, _ := postMonth(t, srv.URL, src, 0, 0); code != http.StatusOK {
		t.Fatalf("idempotent replay = %d, want 200", code)
	}
	// Same index, different data.
	if code, _ := postMonth(t, srv.URL, src, 2, 0); code != http.StatusConflict {
		t.Fatalf("divergent replay = %d, want 409", code)
	}
}

// paddingReader yields n bytes of blank JSONL lines without holding them.
type paddingReader struct{ n int64 }

// paddingLine is one blank line of the padding.
var paddingLine = append(bytes.Repeat([]byte{' '}, 4095), '\n')

func (p *paddingReader) Read(b []byte) (int, error) {
	if p.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(b)) > p.n {
		b = b[:p.n]
	}
	for i := 0; i < len(b); i += len(paddingLine) {
		copy(b[i:], paddingLine)
	}
	p.n -= int64(len(b))
	return len(b), nil
}

// TestHTTPIngestBodyLimit: a body past maxIngestBytes is refused with 413
// even when it would parse — here a valid month followed by blank lines —
// and a normal month still ingests afterwards.
func TestHTTPIngestBodyLimit(t *testing.T) {
	src := genServeCorpus(t, 2)
	c, _, _ := newTestCore(t, t.TempDir())
	defer c.Close()
	h := NewHandler(c, HandlerOptions{})
	waitReady(t, c)

	post := func(body io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest?month=0", body))
		return rec
	}
	var month bytes.Buffer
	if err := mic.Write(&month, monthSlice(t, src, 0)); err != nil {
		t.Fatal(err)
	}
	pad := &paddingReader{n: maxIngestBytes + 1 - int64(month.Len())}
	rec := post(io.MultiReader(bytes.NewReader(month.Bytes()), pad))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413: %s", rec.Code, rec.Body)
	}
	if rec := post(bytes.NewReader(month.Bytes())); rec.Code != http.StatusOK {
		t.Fatalf("normal month after an oversized one = %d, want 200: %s", rec.Code, rec.Body)
	}
}

// TestHTTPIngestInflateLimit: a small gzip body that inflates past
// maxIngestBytes — here more than 256 MiB of zeros in about 260 KB — is
// refused with 413 by the decoded-size cap, and a normal month still
// ingests afterwards.
func TestHTTPIngestInflateLimit(t *testing.T) {
	src := genServeCorpus(t, 2)
	c, _, _ := newTestCore(t, t.TempDir())
	defer c.Close()
	h := NewHandler(c, HandlerOptions{})
	waitReady(t, c)

	var bomb bytes.Buffer
	gz, err := gzip.NewWriterLevel(&bomb, gzip.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 1<<20)
	for n := int64(0); n <= maxIngestBytes; n += int64(len(zeros)) {
		if _, err := gz.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if bomb.Len() >= maxIngestBytes/100 {
		t.Fatalf("gzip body is %d bytes, want a small one", bomb.Len())
	}
	post := func(body io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest?month=0", body))
		return rec
	}
	if rec := post(&bomb); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("inflating body = %d, want 413: %s", rec.Code, rec.Body)
	}
	var month bytes.Buffer
	if err := mic.Write(&month, monthSlice(t, src, 0)); err != nil {
		t.Fatal(err)
	}
	if rec := post(&month); rec.Code != http.StatusOK {
		t.Fatalf("normal month after an inflating one = %d, want 200: %s", rec.Code, rec.Body)
	}
}

// TestHTTPUnreadyCore: a core whose recovery poisoned it keeps /readyz red
// and answers queries and ingests with 503 + Retry-After.
func TestHTTPUnreadyCore(t *testing.T) {
	src := genServeCorpus(t, 2)
	dir := t.TempDir()
	c, _, _ := newTestCore(t, dir)
	waitReady(t, c)
	ingestRange(t, c, src, 0, 2)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	faultpoint.Enable("trend/ckpt-load", faultpoint.Spec{
		Panic: true, Match: func(d string) bool { return d == "month-0" },
	})
	metrics := obs.NewRegistry()
	c2, _, err := NewCore(CoreOptions{Dir: dir, Trend: servingTrendOptions(), Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	deadline := time.Now().Add(30 * time.Second)
	for metrics.Counter("serve/recovery_analysis_failures").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("recovery panic never recorded")
		}
		time.Sleep(2 * time.Millisecond)
	}
	faultpoint.Reset()

	srv := httptest.NewServer(NewHandler(c2, HandlerOptions{}))
	defer srv.Close()
	if code, _, _ := get(t, srv.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz on unready core = %d, want 503", code)
	}
	if code, _, _ := get(t, srv.URL+"/v1/epoch"); code != http.StatusServiceUnavailable {
		t.Fatalf("/v1/epoch on unready core = %d, want 503", code)
	}
	if code, _, _ := get(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz must stay green while unready, got %d", code)
	}
	var buf bytes.Buffer
	if err := mic.Write(&buf, monthSlice(t, src, 0)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/ingest?month=0", "", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest on poisoned core = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After hint")
	}
}

// TestHTTPOverloadSheds drives the bounded queue to capacity through the
// HTTP surface: the shed ingest answers 429 with a Retry-After hint.
func TestHTTPOverloadSheds(t *testing.T) {
	src := genServeCorpus(t, 3)
	metrics := obs.NewRegistry()
	c, _, err := NewCore(CoreOptions{
		Dir: t.TempDir(), Trend: servingTrendOptions(), Metrics: metrics, QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(NewHandler(c, HandlerOptions{}))
	defer srv.Close()
	waitReady(t, c)

	faultpoint.Enable("serve/fold", faultpoint.Spec{
		Delay: 300 * time.Millisecond,
		Match: func(string) bool { return false },
	})
	defer faultpoint.Reset()

	var wg sync.WaitGroup
	codes := make([]int, 2)
	wg.Add(1)
	go func() { defer wg.Done(); codes[0], _ = postMonth(t, srv.URL, src, 0, 0) }()
	for deadline := time.Now().Add(10 * time.Second); faultpoint.Hits("serve/fold") == 0; {
		if time.Now().After(deadline) {
			t.Fatal("first ingest never reached the fold")
		}
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go func() { defer wg.Done(); codes[1], _ = postMonth(t, srv.URL, src, 1, 1) }()
	for deadline := time.Now().Add(10 * time.Second); len(c.queue) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second ingest never queued")
		}
		time.Sleep(time.Millisecond)
	}

	var buf bytes.Buffer
	if err := mic.Write(&buf, monthSlice(t, src, 2)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/ingest?month=2", "", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed ingest = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("queued ingest %d = %d", i, code)
		}
	}
}

// TestIngestErrorStatusTable pins the full error → status mapping.
func TestIngestErrorStatusTable(t *testing.T) {
	cases := []struct {
		err    error
		status int
		retry  bool
	}{
		{ErrOverloaded, http.StatusTooManyRequests, true},
		{ErrClosing, http.StatusServiceUnavailable, true},
		{ErrPoisoned, http.StatusServiceUnavailable, true},
		{ErrMonthConflict, http.StatusConflict, false},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, false},
		{context.Canceled, http.StatusGatewayTimeout, false},
		{errors.New("anything else"), http.StatusInternalServerError, false},
	}
	for _, tc := range cases {
		status, headers := ingestErrorStatus(tc.err)
		if status != tc.status {
			t.Errorf("ingestErrorStatus(%v) = %d, want %d", tc.err, status, tc.status)
		}
		if got := headers["Retry-After"] != ""; got != tc.retry {
			t.Errorf("ingestErrorStatus(%v) Retry-After present=%v, want %v", tc.err, got, tc.retry)
		}
	}
}
