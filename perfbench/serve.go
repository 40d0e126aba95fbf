package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mictrend/internal/mic"
	"mictrend/internal/micgen"
	"mictrend/internal/obs"
	"mictrend/internal/serve"
	"mictrend/internal/trend"
)

// serveSpec describes the serving workload.
type serveSpec struct {
	months, records int
	catalog         func() *micgen.Catalog // fixed across seeds
	opts            trend.Options
	setupReps       int
	ladderSeconds   float64       // nominal length of one ladder: a run makes --seconds/ladderSeconds of them, at least one
	restarts        int           // Close + NewCore cycles in the measured phase
	readRate        float64       // open-loop reads per second beside the ladder
	readPhase       time.Duration // closed-loop read-only phase
	tracedReadPhase time.Duration // read-only phase of the traced pass
}

// ladders is the number of ladders for a run of the given length, each on a
// fresh directory.
func (s serveSpec) ladders(budget time.Duration) int {
	return max(1, int(math.Round(budget.Seconds()/s.ladderSeconds)))
}

// serveMixedSpec is serve-mixed: trendserve's stack folding 43 months of the
// first eleven scenario diseases with the binary non-seasonal scan while an
// open-loop reader queries it.
func serveMixedSpec(cfg runConfig) serveSpec {
	opts := trend.DefaultOptions()
	opts.Method = trend.MethodBinary
	opts.Seasonal = false
	opts.Workers = cfg.Workers
	spec := serveSpec{
		months: 43, records: 1000,
		catalog: func() *micgen.Catalog {
			return scenarioSubset(43, micgen.DiseaseHypertension, micgen.DiseaseArthritis, micgen.DiseaseHayFever,
				micgen.DiseaseHeatstroke, micgen.DiseaseInfluenza, micgen.DiseaseAsthma, micgen.DiseaseBronchitis,
				micgen.DiseaseCOPD, micgen.DiseaseLewyBody, micgen.DiseaseParkinson, micgen.DiseaseOsteoporosis)
		},
		opts:            opts,
		setupReps:       5,
		ladderSeconds:   5,
		restarts:        5,
		readRate:        500,
		readPhase:       3 * time.Second,
		tracedReadPhase: 2 * time.Second,
	}
	if cfg.Tiny {
		spec.months, spec.records, spec.setupReps, spec.restarts = 8, 200, 1, 1
		spec.catalog = func() *micgen.Catalog { return micgen.NewCatalog(8, 0, 0, nil) }
		spec.readPhase, spec.tracedReadPhase = 300*time.Millisecond, 300*time.Millisecond
	}
	return spec
}

func (s serveSpec) genConfig(seed uint64) micgen.Config {
	return micgen.Config{Seed: seed, Months: s.months, RecordsPerMonth: s.records, Catalog: s.catalog()}
}

// monthBodies encodes each month as the JSONL body of one ingest request:
// the corpus vocabulary in the header, so the server's ids equal the
// generator's, then the month's records.
func monthBodies(ds *mic.Dataset) ([][]byte, error) {
	meta := mic.StreamMeta{Months: 1, Diseases: ds.Diseases.Codes(), Medicines: ds.Medicines.Codes(), Hospitals: ds.Hospitals}
	bodies := make([][]byte, len(ds.Months))
	for i, m := range ds.Months {
		var buf bytes.Buffer
		sw, err := mic.NewJSONLStreamWriter(&buf, meta)
		if err != nil {
			return nil, err
		}
		if err := sw.WriteMonth(&mic.Monthly{Month: 0, Records: m.Records}); err != nil {
			return nil, err
		}
		if err := sw.Close(); err != nil {
			return nil, err
		}
		bodies[i] = buf.Bytes()
	}
	return bodies, nil
}

// server is trendserve's stack in process: a serve.Core behind
// serve.NewHandler wrapped in serve.Instrument, on a loopback listener.
type server struct {
	core   *serve.Core
	http   *http.Server
	url    string
	served chan error
}

// serverOptions are the hooks a traced pass adds to the stack.
type serverOptions struct {
	metrics *obs.Registry
	sink    obs.SpanObserver                // program spans: pipeline stages and ingest lineage
	wrap    func(http.Handler) http.Handler // benchmark middleware around the whole handler
}

// startServer opens a core on dir, waits until it is Ready, and starts
// serving. It returns the time from NewCore to Ready.
func startServer(dir string, topts trend.Options, so serverOptions) (*server, time.Duration, error) {
	metrics := so.metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	topts.Trace = so.sink
	t0 := time.Now()
	core, _, err := serve.NewCore(serve.CoreOptions{Dir: dir, Trend: topts, Metrics: metrics, Trace: so.sink})
	if err != nil {
		return nil, 0, err
	}
	for !core.Ready() {
		if time.Since(t0) > time.Minute {
			core.Close()
			return nil, 0, fmt.Errorf("core on %s not ready after a minute", dir)
		}
		time.Sleep(200 * time.Microsecond)
	}
	ready := time.Since(t0)
	h := serve.Instrument(serve.NewHandler(core, serve.HandlerOptions{}), serve.InstrumentOptions{Metrics: metrics})
	if so.wrap != nil {
		h = so.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		core.Close()
		return nil, 0, err
	}
	s := &server{core: core, http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, ready, nil
}

// stop shuts the listener down, waits for the serve goroutine, and closes
// the core, draining its fold queue.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	<-s.served
	if cerr := s.core.Close(); err == nil {
		err = cerr
	}
	return err
}

// requestIDs numbers the benchmark's requests, so the middleware can match
// handler time to client time.
var requestIDs atomic.Int64

// client is one HTTP connection's worth of client: at most one connection,
// every request counted.
type client struct {
	http     *http.Client
	tr       *http.Transport
	counts   *requestCounts
	log      []clientCall // filled when logging is on
	logCalls bool
}

// requestCounts counts a pass's requests across its clients.
type requestCounts struct {
	attempted, failed atomic.Int64
}

// clientCall is one logged request: its id, route and client-side time.
type clientCall struct {
	id, route string
	took      time.Duration
}

func newClient(counts *requestCounts) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, tr: tr, counts: counts}
}

// do sends one request and reads the whole response; a non-2xx status or a
// transport error counts as failed.
func (c *client) do(method, url, route string, body []byte) ([]byte, error) {
	c.counts.attempted.Add(1)
	id := "pb-" + strconv.FormatInt(requestIDs.Add(1), 10)
	t0 := time.Now()
	out, err := c.roundTrip(method, url, id, body)
	if err != nil {
		c.counts.failed.Add(1)
		return nil, err
	}
	if c.logCalls {
		c.log = append(c.log, clientCall{id: id, route: route, took: time.Since(t0)})
	}
	return out, nil
}

func (c *client) roundTrip(method, url, id string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(serve.RequestIDHeader, id)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// readMix draws the reads: 90% one series by key, 5% the detection list,
// 5% the epoch summary.
type readMix struct {
	rng  *rand.Rand
	keys []string
}

func (m *readMix) next(base string) (url, route string) {
	switch u := m.rng.Float64(); {
	case u < 0.90:
		return base + "/v1/series?key=" + m.keys[m.rng.IntN(len(m.keys))], "series"
	case u < 0.95:
		return base + "/v1/detections", "detections"
	default:
		return base + "/v1/epoch", "epoch"
	}
}

// detectionJSON mirrors one entry of /v1/detections.
type detectionJSON struct {
	Key         string  `json:"key"`
	Kind        string  `json:"kind"`
	Disease     string  `json:"disease,omitempty"`
	Medicine    string  `json:"medicine,omitempty"`
	ChangePoint int     `json:"change_point"`
	Detected    bool    `json:"detected"`
	AIC         float64 `json:"aic"`
	NoChangeAIC float64 `json:"no_change_aic"`
	Fits        int     `json:"fits"`
}

func decodeDetections(raw []byte) ([]detectionJSON, error) {
	var resp struct {
		Detections []detectionJSON `json:"detections"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("decoding /v1/detections: %w", err)
	}
	return resp.Detections, nil
}

// expectedDetections renders a cold analysis the way /v1/detections does.
func expectedDetections(ds *mic.Dataset, a *trend.Analysis) []detectionJSON {
	out := []detectionJSON{}
	for _, group := range [][]trend.Detection{a.Diseases, a.Medicines, a.Prescriptions} {
		for _, det := range group {
			d := detectionJSON{
				Kind: det.Kind.String(), ChangePoint: det.Result.ChangePoint, Detected: det.Result.Detected(),
				AIC: det.Result.AIC, NoChangeAIC: det.Result.NoChangeAIC, Fits: det.Result.Fits,
			}
			switch det.Kind {
			case trend.KindDisease:
				d.Key = "disease:" + strconv.Itoa(int(det.Disease))
				d.Disease = ds.Diseases.Code(int32(det.Disease))
			case trend.KindMedicine:
				d.Key = "medicine:" + strconv.Itoa(int(det.Medicine))
				d.Medicine = ds.Medicines.Code(int32(det.Medicine))
			default:
				d.Key = fmt.Sprintf("prescription:%d/%d", det.Disease, det.Medicine)
				d.Disease = ds.Diseases.Code(int32(det.Disease))
				d.Medicine = ds.Medicines.Code(int32(det.Medicine))
			}
			out = append(out, d)
		}
	}
	return out
}

// ladderOut is one pass of the 43-month ladder.
type ladderOut struct {
	wall    time.Duration // first POST sent to last reply
	publish []float64     // seconds from each POST to its reply
	reads   []loopSample  // open-loop reads beside the folds
	keys    []string      // the series keys the reads draw from
}

// runLadder POSTs the months in order on the ingest client, each after the
// previous reply. Once the first month is live, the reader client reads on
// the open-loop schedule until the last reply arrives.
func runLadder(s *server, bodies [][]byte, ingest, reader *client, rate float64, seed uint64) (*ladderOut, error) {
	out := &ladderOut{}
	post := func(i int) error {
		t0 := time.Now()
		_, err := ingest.do(http.MethodPost, s.url+"/v1/ingest?month="+strconv.Itoa(i), "ingest", bodies[i])
		out.publish = append(out.publish, time.Since(t0).Seconds())
		return err
	}
	// Ingest until the first series are live; the reads draw from those.
	t0 := time.Now()
	next := 0
	for ; len(out.keys) == 0; next++ {
		if next == len(bodies) {
			return nil, fmt.Errorf("no series live after %d months", next)
		}
		if err := post(next); err != nil {
			return nil, fmt.Errorf("ingesting month %d: %w", next, err)
		}
		raw, err := reader.do(http.MethodGet, s.url+"/v1/detections", "detections", nil)
		if err != nil {
			return nil, err
		}
		live, err := decodeDetections(raw)
		if err != nil {
			return nil, err
		}
		for _, d := range live {
			out.keys = append(out.keys, d.Key)
		}
	}
	mix := &readMix{rng: rand.New(rand.NewPCG(seed, 0x72656164)), keys: out.keys}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		out.reads = openLoop(time.Now(), time.Duration(float64(time.Second)/rate), stop, func(int) error {
			url, route := mix.next(s.url)
			_, err := reader.do(http.MethodGet, url, route, nil)
			return err
		})
	}()
	var err error
	for i := next; i < len(bodies) && err == nil; i++ {
		if err = post(i); err != nil {
			err = fmt.Errorf("ingesting month %d: %w", i, err)
		}
	}
	out.wall = time.Since(t0)
	close(stop)
	<-done
	return out, err
}

// readPhase runs closed-loop reads on every client until d has passed and
// returns the completed reads per second.
func readPhase(s *server, clients []*client, keys []string, d time.Duration, seed uint64) float64 {
	var completed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, mix *readMix) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				url, route := mix.next(s.url)
				if _, err := c.do(http.MethodGet, url, route, nil); err == nil {
					completed.Add(1)
				}
			}
		}(c, &readMix{rng: rand.New(rand.NewPCG(seed, uint64(i)+1)), keys: keys})
	}
	wg.Wait()
	return float64(completed.Load()) / time.Since(t0).Seconds()
}

// handlerTimes is the benchmark's middleware: it times each request inside
// the server, keyed by request id.
type handlerTimes struct {
	mu   sync.Mutex
	byID map[string]time.Duration
}

func (ht *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		ht.mu.Lock()
		ht.byID[r.Header.Get(serve.RequestIDHeader)] = d
		ht.mu.Unlock()
	})
}

func runServeMixed(cfg runConfig) (*report, error) {
	spec := serveMixedSpec(cfg)

	// Set-up: generate, encode the month bodies, start a server on a fresh
	// directory. Repeated; the last server is the one measured.
	var setups []float64
	var bodies [][]byte
	var s *server
	var dir string
	for i := 0; i < spec.setupReps; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(cfg.WorkDir, fmt.Sprintf("state-%d", i))
		t0 := time.Now()
		ds, _, err := micgen.Generate(spec.genConfig(cfg.Seed))
		if err != nil {
			return nil, err
		}
		if bodies, err = monthBodies(ds); err != nil {
			return nil, err
		}
		if s, _, err = startServer(dir, spec.opts, serverOptions{}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		ds = nil
		runtime.GC()
	}

	counts := &requestCounts{}
	ingest, reader := newClient(counts), newClient(counts)
	responses, e2e, layers, err := measureServe(cfg, spec, s, dir, bodies, ingest, reader)
	if err != nil {
		return nil, err
	}
	e2e["setup_s"] = median(setups)
	rep := &report{E2E: e2e, Attempted: int(counts.attempted.Load()), Failed: int(counts.failed.Load())}

	// Checks: every served detection list equals a cold trend.Analyze over
	// the same months with the same options.
	ds, _, err := micgen.Generate(spec.genConfig(cfg.Seed))
	if err != nil {
		return rep, err
	}
	cold, err := trend.Analyze(context.Background(), ds, spec.opts)
	if err != nil {
		return rep, err
	}
	want := expectedDetections(ds, cold)
	for i, raw := range responses {
		got, err := decodeDetections(raw)
		if err != nil {
			return rep, err
		}
		if !reflect.DeepEqual(got, want) {
			what := fmt.Sprintf("ladder %d", i)
			if l := spec.ladders(cfg.Budget); i >= l {
				what = fmt.Sprintf("restart %d", i-l)
			}
			return rep, checkf("/v1/detections after %s differs from a cold trend.Analyze (%d vs %d series)", what, len(got), len(want))
		}
	}
	if !cfg.Trace {
		return rep, nil
	}

	tracer := obs.NewTracer()
	tp, err := tracedServe(cfg, spec, bodies, tracer, counts)
	if err != nil {
		return rep, err
	}
	for k, v := range tp {
		layers[k] = v
	}
	layers["trace.overhead"] = layers["trace.wall_s"] / e2e["wall_s"]
	delete(layers, "trace.wall_s")
	rep.Attempted, rep.Failed = int(counts.attempted.Load()), int(counts.failed.Load())
	layers["failed_frac"] = float64(rep.Failed) / float64(rep.Attempted)
	rep.Layers = layers
	rep.TracePath, err = writeTrace(cfg, "serve-mixed", tracer)
	return rep, err
}

// measureServe is the untraced measured phase: the ladders with the
// open-loop reader (the first on the set-up's server, each later one on a
// fresh directory), the closed-loop read-only phase, and the restarts. It
// returns the /v1/detections bodies to check (after each ladder and each
// restart), the end-to-end metrics, and the serving metrics reported with the
// per-layer ones.
func measureServe(cfg runConfig, spec serveSpec, s *server, dir string, bodies [][]byte, ingest, reader *client) ([][]byte, map[string]float64, map[string]float64, error) {
	var responses [][]byte
	var walls, allocs, peaks, publish, reads, late []float64
	var keys []string
	fail := func(err error) ([][]byte, map[string]float64, map[string]float64, error) {
		if s != nil {
			s.stop()
		}
		return nil, nil, nil, err
	}
	// detections fetches the served detection list for the checks.
	detections := func() error {
		raw, err := reader.do(http.MethodGet, s.url+"/v1/detections", "detections", nil)
		responses = append(responses, raw)
		return err
	}
	ladders := spec.ladders(cfg.Budget)
	for l := 0; l < ladders; l++ {
		if l > 0 {
			err := s.stop()
			s = nil
			if err != nil {
				return fail(err)
			}
			dir = filepath.Join(cfg.WorkDir, fmt.Sprintf("ladder-%d", l))
			if s, _, err = startServer(dir, spec.opts, serverOptions{}); err != nil {
				return fail(err)
			}
		}
		mark, err := markMemory()
		if err != nil {
			return fail(err)
		}
		lad, err := runLadder(s, bodies, ingest, reader, spec.readRate, cfg.Seed)
		if err != nil {
			return fail(err)
		}
		alloc, peak, err := mark.since()
		if err != nil {
			return fail(err)
		}
		walls, allocs, peaks = append(walls, lad.wall.Seconds()), append(allocs, alloc), append(peaks, peak)
		publish = append(publish, lad.publish...)
		for _, smp := range lad.reads {
			reads = append(reads, float64(smp.Latency)/float64(time.Millisecond))
			late = append(late, float64(smp.Lateness)/float64(time.Millisecond))
		}
		keys = lad.keys
		if err := detections(); err != nil {
			return fail(err)
		}
	}
	readsPerS := readPhase(s, []*client{ingest, reader}, keys, spec.readPhase, cfg.Seed)

	var recovers []float64
	for r := 0; r < spec.restarts; r++ {
		err := s.stop()
		s = nil
		if err != nil {
			return fail(err)
		}
		ingest.tr.CloseIdleConnections()
		reader.tr.CloseIdleConnections()
		var ready time.Duration
		if s, ready, err = startServer(dir, spec.opts, serverOptions{}); err != nil {
			return fail(err)
		}
		recovers = append(recovers, ready.Seconds())
		if err := detections(); err != nil {
			return fail(err)
		}
	}
	err := s.stop()
	ingest.tr.CloseIdleConnections()
	reader.tr.CloseIdleConnections()
	if err != nil {
		return nil, nil, nil, err
	}

	logSamples("ladder wall_s", walls)
	logSamples("ladder alloc_mib", allocs)
	e2e := map[string]float64{"wall_s": median(walls), "alloc_mib": median(allocs), "peak_rss_mib": median(peaks)}
	layers := map[string]float64{
		"publish_p50_s":          percentile(publish, 50),
		"publish_p75_s":          percentile(publish, 75),
		"read_p50_ms":            percentile(reads, 50),
		"read_p99_ms":            percentile(reads, 99),
		"read_samples":           float64(len(reads)),
		"reads_per_s":            readsPerS,
		"recover_s":              median(recovers),
		"serve.read_lateness_ms": percentile(late, 99),
	}
	return responses, e2e, layers, nil
}

// tracedServe repeats the ladder on a fresh directory with the program's
// span hooks on (pipeline stages through trend.Options.Trace, ingest lineage
// through serve.CoreOptions.Trace) and the benchmark's middleware timing
// every request, then a short read-only phase, and times serve.Open on the
// closed directory.
func tracedServe(cfg runConfig, spec serveSpec, bodies [][]byte, tracer *obs.Tracer, counts *requestCounts) (map[string]float64, error) {
	dir := filepath.Join(cfg.WorkDir, "state-traced")
	ht := &handlerTimes{byID: make(map[string]time.Duration)}
	metrics := obs.NewRegistry()
	s, _, err := startServer(dir, spec.opts, serverOptions{metrics: metrics, sink: tracer.Observe, wrap: ht.wrap})
	if err != nil {
		return nil, err
	}
	ingest, reader := newClient(counts), newClient(counts)
	ingest.logCalls, reader.logCalls = true, true
	lc := layerClock{tracer: tracer}
	if _, err := markMemory(); err != nil { // start like the untraced ladders
		s.stop()
		return nil, err
	}
	var lad *ladderOut
	_, err = lc.time("serve/ladder", func() (err error) {
		lad, err = runLadder(s, bodies, ingest, reader, spec.readRate, cfg.Seed)
		return err
	})
	if err != nil {
		s.stop()
		return nil, err
	}
	readPhase(s, []*client{ingest, reader}, lad.keys, spec.tracedReadPhase, cfg.Seed)
	err = s.stop()
	ingest.tr.CloseIdleConnections()
	reader.tr.CloseIdleConnections()
	if err != nil {
		return nil, err
	}

	// Decode each body the way the ingest handler does, outside the server.
	var decode time.Duration
	for i, b := range bodies {
		d, err := lc.time("mic/decode", func() error {
			_, _, _, err := mic.ReadAuto(bytes.NewReader(b), mic.StorageOptions{Read: mic.ReadOptions{Strict: true}})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("decoding month %d: %w", i, err)
		}
		decode += d
	}
	state, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	var opens []float64
	for i := 0; i < 3; i++ {
		d, err := lc.time("serve/open", func() error {
			st, _, err := serve.Open(dir, nil)
			if err != nil {
				return err
			}
			if err := st.MarkCleanShutdown(st.LastEpoch()); err != nil {
				st.Close()
				return err
			}
			return st.Close()
		})
		if err != nil {
			return nil, err
		}
		opens = append(opens, d.Seconds())
	}

	spans := tracer.Spans()
	model, repro, detect := spanTotal(spans, "stage/model"), spanTotal(spans, "stage/reproduce"), spanTotal(spans, "stage/detect")
	queue := spanTotal(spans, "serve/queue")
	var handlerIngest time.Duration
	byRoute := map[string][]float64{}
	var httpRead []float64
	for _, c := range append(ingest.log, reader.log...) {
		hd, ok := ht.byID[c.id]
		if !ok {
			return nil, fmt.Errorf("request %s has no handler time", c.id)
		}
		if c.route == "ingest" {
			handlerIngest += hd
			continue
		}
		byRoute[c.route] = append(byRoute[c.route], float64(hd)/float64(time.Microsecond))
		httpRead = append(httpRead, float64(c.took-hd)/float64(time.Microsecond))
	}
	foldMonths := len(bodies) * (len(bodies) + 1) / 2 // months analysed, summed over the folds
	snap := metrics.Snapshot()
	lik := snap.Counters["ssm/lik_evals"]
	series := snap.Counters["scan/series"]
	core := handlerIngest - decode - model - repro - detect - queue
	return map[string]float64{
		"mic.decode_s":                     decode.Seconds(),
		"medmodel.em_iterations":           float64(snap.Counters["em/iterations"]),
		"changepoint.series":               float64(series),
		"changepoint.fits_per_series":      float64(snap.Counters["scan/total_fits"]) / float64(max(series, 1)),
		"changepoint.prefix_resumes":       float64(snap.Counters["scan/prefix_resumes"]),
		"ssm.lik_evals":                    float64(lik),
		"ssm.restarts":                     float64(snap.Counters["ssm/restarts"]),
		"kalman.steady_share":              float64(snap.Counters["kalman/steady_hits"]) / float64(max(lik, 1)),
		"trend.ckpt_reuse_share":           float64(snap.Counters["trend/ckpt_months_reused"]) / float64(foldMonths),
		"serve.fold_model_s":               model.Seconds(),
		"serve.fold_reproduce_s":           repro.Seconds(),
		"serve.fold_detect_s":              detect.Seconds(),
		"serve.fold_core_s":                core.Seconds(),
		"serve.queue_wait_s":               queue.Seconds(),
		"serve.handler_read_us.series":     median(byRoute["series"]),
		"serve.handler_read_us.detections": median(byRoute["detections"]),
		"serve.handler_read_us.epoch":      median(byRoute["epoch"]),
		"serve.http_read_us":               median(httpRead),
		"serve.state_mib":                  float64(state) / mib,
		"serve.open_s":                     median(opens),
		"trace.coverage":                   handlerIngest.Seconds() / lad.wall.Seconds(),
		"trace.wall_s":                     lad.wall.Seconds(),
	}, nil
}
