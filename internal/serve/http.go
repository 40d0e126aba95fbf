package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"mictrend/internal/mic"
	"mictrend/internal/trend"
)

// HandlerOptions configures the HTTP surface.
type HandlerOptions struct {
	// MetricsNamespace prefixes the Prometheus exposition (default
	// "mictrend").
	MetricsNamespace string
}

// NewHandler mounts the serving API onto a fresh mux:
//
//	POST /v1/ingest?month=N   one-month JSONL dataset body → fold + publish
//	GET  /v1/epoch            current snapshot summary
//	GET  /v1/series?key=K     one series' data and detection
//	GET  /v1/detections       every detection in the current epoch
//	GET  /v1/failures         the current epoch's degradations
//	GET  /v1/recovery         the startup recovery report
//	GET  /v1/status           operational status: epoch age, queue depth,
//	                          last-fold duration, per-month lineage, recovery
//	GET  /healthz             process liveness (always 200)
//	GET  /readyz              200 once the first epoch is published
//	GET  /metrics             Prometheus exposition of the core registry
//
// Every query serves from the epoch snapshot current at arrival; a month
// folding in concurrently is invisible until its epoch swaps in.
func NewHandler(c *Core, opts HandlerOptions) http.Handler {
	if opts.MetricsNamespace == "" {
		opts.MetricsNamespace = "mictrend"
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ingest", func(w http.ResponseWriter, r *http.Request) { handleIngest(c, w, r) })
	mux.HandleFunc("/v1/epoch", func(w http.ResponseWriter, r *http.Request) { handleEpoch(c, w, r) })
	mux.HandleFunc("/v1/series", func(w http.ResponseWriter, r *http.Request) { handleSeries(c, w, r) })
	mux.HandleFunc("/v1/detections", func(w http.ResponseWriter, r *http.Request) { handleDetections(c, w, r) })
	mux.HandleFunc("/v1/failures", func(w http.ResponseWriter, r *http.Request) { handleFailures(c, w, r) })
	mux.HandleFunc("/v1/recovery", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, http.StatusOK, c.Report()) })
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, http.StatusOK, c.Status()) })
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !c.Ready() {
			http.Error(w, "warming: no epoch published yet", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	mux.Handle("/metrics", c.metrics.PrometheusHandler(opts.MetricsNamespace))
	return mux
}

// maxIngestBytes caps one /v1/ingest body twice: its wire size, and its
// decoded size after gunzip, so neither a large body nor a small gzip bomb
// can make the decoder read and buffer more. The read that crosses either
// cap fails and the request gets 413.
const maxIngestBytes = 256 << 20

type ingestResponse struct {
	Month int   `json:"month"`
	Epoch int64 `json:"epoch"`
}

func handleIngest(c *Core, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	want := -1
	if s := r.URL.Query().Get("month"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			httpError(w, http.StatusBadRequest, "month must be a non-negative integer")
			return
		}
		want = v
	}
	// The body's format is sniffed by magic bytes, so clients may POST a
	// month as JSONL (optionally gzipped) or as a MICC1 columnar image.
	body := http.MaxBytesReader(w, r.Body, maxIngestBytes)
	month, _, _, err := mic.ReadAuto(body, mic.StorageOptions{Read: mic.ReadOptions{Strict: true, MaxBytes: maxIngestBytes}})
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("month body exceeds %d bytes", tooLarge.Limit))
			return
		}
		if errors.Is(err, mic.ErrTooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("decoded month body exceeds %d bytes", maxIngestBytes))
			return
		}
		httpError(w, http.StatusBadRequest, "parsing month body: "+err.Error())
		return
	}
	idx, epoch, err := c.Ingest(r.Context(), month, want)
	if err != nil {
		status, headers := ingestErrorStatus(err)
		for k, v := range headers {
			w.Header().Set(k, v)
		}
		httpError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{Month: idx, Epoch: epoch})
}

// ingestErrorStatus maps core errors onto HTTP semantics: shed load is 429
// with a Retry-After hint, a draining core is 503, month conflicts are 409,
// deadline expiry is 504, and anything else is a 500.
func ingestErrorStatus(err error) (int, map[string]string) {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, map[string]string{"Retry-After": "1"}
	case errors.Is(err, ErrClosing), errors.Is(err, ErrPoisoned):
		return http.StatusServiceUnavailable, map[string]string{"Retry-After": "5"}
	case errors.Is(err, ErrMonthConflict):
		return http.StatusConflict, nil
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, nil
	default:
		return http.StatusInternalServerError, nil
	}
}

type epochResponse struct {
	Seq           int64 `json:"seq"`
	Months        int   `json:"months"`
	Diseases      int   `json:"diseases"`
	Medicines     int   `json:"medicines"`
	Prescriptions int   `json:"prescriptions"`
	Failures      int   `json:"failures"`
	TotalFits     int   `json:"total_fits"`
}

func handleEpoch(c *Core, w http.ResponseWriter, r *http.Request) {
	e, ok := currentEpoch(c, w)
	if !ok {
		return
	}
	resp := epochResponse{Seq: e.Seq, Months: e.Months}
	if a := e.Analysis; a != nil {
		resp.Diseases = len(a.Diseases)
		resp.Medicines = len(a.Medicines)
		resp.Prescriptions = len(a.Prescriptions)
		resp.Failures = len(a.Failures)
		resp.TotalFits = a.TotalFits
	}
	writeJSON(w, http.StatusOK, resp)
}

// detectionJSON is one detection rendered for the API, carrying the stable
// series key ("disease:3", "prescription:3/7") plus the search outcome.
type detectionJSON struct {
	Key         string    `json:"key"`
	Kind        string    `json:"kind"`
	Disease     string    `json:"disease,omitempty"`
	Medicine    string    `json:"medicine,omitempty"`
	ChangePoint int       `json:"change_point"`
	Detected    bool      `json:"detected"`
	AIC         float64   `json:"aic"`
	NoChangeAIC float64   `json:"no_change_aic"`
	Fits        int       `json:"fits"`
	Series      []float64 `json:"series,omitempty"`
}

func detectionToJSON(e *Epoch, det trend.Detection, withSeries bool) detectionJSON {
	d := detectionJSON{
		Key:         detectionKey(det),
		Kind:        det.Kind.String(),
		ChangePoint: det.Result.ChangePoint,
		Detected:    det.Result.Detected(),
		AIC:         det.Result.AIC,
		NoChangeAIC: det.Result.NoChangeAIC,
		Fits:        det.Result.Fits,
	}
	if det.Kind == trend.KindDisease || det.Kind == trend.KindPrescription {
		if i := int(det.Disease); i >= 0 && i < len(e.DiseaseCodes) {
			d.Disease = e.DiseaseCodes[i]
		}
	}
	if det.Kind == trend.KindMedicine || det.Kind == trend.KindPrescription {
		if i := int(det.Medicine); i >= 0 && i < len(e.MedicineCodes) {
			d.Medicine = e.MedicineCodes[i]
		}
	}
	if withSeries {
		d.Series = det.Series
	}
	return d
}

// detectionKey mirrors the pipeline's internal series key format so API
// keys, trace span names, and explain artifact names all agree.
func detectionKey(det trend.Detection) string {
	switch det.Kind {
	case trend.KindDisease:
		return "disease:" + strconv.Itoa(int(det.Disease))
	case trend.KindMedicine:
		return "medicine:" + strconv.Itoa(int(det.Medicine))
	default:
		return "prescription:" + strconv.Itoa(int(det.Disease)) + "/" + strconv.Itoa(int(det.Medicine))
	}
}

func handleSeries(c *Core, w http.ResponseWriter, r *http.Request) {
	e, ok := currentEpoch(c, w)
	if !ok {
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		httpError(w, http.StatusBadRequest, "key query parameter required (e.g. disease:3, prescription:3/7)")
		return
	}
	if a := e.Analysis; a != nil {
		for _, group := range [][]trend.Detection{a.Diseases, a.Medicines, a.Prescriptions} {
			for _, det := range group {
				if detectionKey(det) == key {
					writeJSON(w, http.StatusOK, detectionToJSON(e, det, true))
					return
				}
			}
		}
	}
	httpError(w, http.StatusNotFound, "no such series in the current epoch: "+key)
}

type detectionsResponse struct {
	Epoch      int64           `json:"epoch"`
	Detections []detectionJSON `json:"detections"`
}

func handleDetections(c *Core, w http.ResponseWriter, r *http.Request) {
	e, ok := currentEpoch(c, w)
	if !ok {
		return
	}
	resp := detectionsResponse{Epoch: e.Seq, Detections: []detectionJSON{}}
	onlyDetected := r.URL.Query().Get("detected") == "true"
	if a := e.Analysis; a != nil {
		for _, group := range [][]trend.Detection{a.Diseases, a.Medicines, a.Prescriptions} {
			for _, det := range group {
				if onlyDetected && !det.Result.Detected() {
					continue
				}
				resp.Detections = append(resp.Detections, detectionToJSON(e, det, false))
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

type failureJSON struct {
	Stage    string `json:"stage"`
	Month    int    `json:"month,omitempty"`
	Disease  int    `json:"disease,omitempty"`
	Medicine int    `json:"medicine,omitempty"`
	Err      string `json:"err"`
	Panicked bool   `json:"panicked,omitempty"`
}

type failuresResponse struct {
	Epoch    int64         `json:"epoch"`
	Failures []failureJSON `json:"failures"`
}

func handleFailures(c *Core, w http.ResponseWriter, r *http.Request) {
	e, ok := currentEpoch(c, w)
	if !ok {
		return
	}
	resp := failuresResponse{Epoch: e.Seq, Failures: []failureJSON{}}
	if a := e.Analysis; a != nil {
		for _, f := range a.Failures {
			resp.Failures = append(resp.Failures, failureJSON{
				Stage: f.Stage.String(), Month: f.Month,
				Disease: int(f.Disease), Medicine: int(f.Medicine),
				Err: f.Err, Panicked: f.Panicked,
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// currentEpoch loads the published snapshot or answers 503 during warmup.
func currentEpoch(c *Core, w http.ResponseWriter) (*Epoch, bool) {
	e := c.Epoch()
	if e == nil {
		httpError(w, http.StatusServiceUnavailable, "warming: no epoch published yet")
		return nil, false
	}
	return e, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
