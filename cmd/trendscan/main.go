// Command trendscan runs the paper's full two-stage pipeline over a MIC
// corpus: fit the latent-variable medication model per month, reproduce the
// disease/medicine/prescription time series, detect trend change points with
// the AIC-driven search, and classify each prescription-level change as
// disease-, medicine-, or prescription-derived.
//
// Usage:
//
//	trendscan -in corpus.jsonl.gz [-method binary] [-top 20]
//	trendscan -generate [-months 36] [-records 1000]   (self-contained demo)
//	trendscan -generate -hierarchy                     (hierarchical surveillance drill-down)
//	trendscan -generate -out run/                      (consolidated artifact directory)
//
// Observability:
//
//	trendscan -generate -out run/                    (report, manifest, metrics, explain, …, one directory)
//	trendscan -generate -progress                    (log progress events)
//	trendscan -generate -pprof localhost:6060        (serve net/http/pprof during the run)
//	trendscan -generate -prom localhost:9100         (serve Prometheus text metrics at /metrics)
//	trendscan -generate -checkpoint ckpt/            (persist per-month fits; reruns reuse them)
//
// -out DIR consolidates every run artifact under one directory with a
// manifest.json naming what was written where: report.txt (the same report
// that goes to stdout), metrics.json, trace.json, series.csv, explain/
// provenance, and — with -hierarchy — surveillance.txt and
// surveillance.json. The older single-artifact flags (-explain, -metrics,
// -trace, -csv) still work and override the corresponding path inside -out,
// but are deprecated in favor of the one-directory layout.
//
// -hierarchy rolls the reproduced series up the medicine-class/disease-group
// hierarchy, scans the small aggregate set, drills each detected break down
// to the child series driving it, and flags offsetting substitution pairs.
// Generated corpora (-generate) take the hierarchy from the micgen catalog;
// real corpora supply code-level maps via -hierarchy-file.
//
// Every exit path — success, interrupt, analysis error, post-analysis I/O
// failure, -max-failures breach — flushes the same artifacts (partial trace,
// metrics, explain provenance, out-directory manifest, checkpoint store)
// before the process exits, and exit codes are consistent: 0 success,
// 1 error, 2 usage, 130 interrupt.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mictrend/internal/mic"
	"mictrend/internal/micgen"
	"mictrend/internal/obs"
	"mictrend/internal/serve"
	"mictrend/internal/trend"
)

// version stamps the explain manifest so archived artifacts identify the
// binary that produced them.
const version = "trendscan/0.7"

// Exit codes, shared by every path through run.
const (
	exitOK        = 0
	exitError     = 1
	exitUsage     = 2
	exitInterrupt = 130 // conventional SIGINT status
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trendscan: ")
	os.Exit(run())
}

// outManifest is the top-level manifest of a consolidated -out directory:
// the run manifest plus surveillance totals and a map naming each artifact
// that was actually written.
type outManifest struct {
	trend.Manifest
	SurveilNodes      int               `json:"surveil_nodes,omitempty"`
	SurveilDetections int               `json:"surveil_detections,omitempty"`
	SurveilOffsets    int               `json:"surveil_offset_pairs,omitempty"`
	StageTimings      []stageTiming     `json:"stage_timings,omitempty"`
	Artifacts         map[string]string `json:"artifacts"`
}

// flusher funnels every exit path through one artifact flush: whatever the
// run accumulated — span trace, metrics JSON, explain provenance, the
// surveillance tree, the -out manifest — is written exactly once, and the
// checkpoint store is closed, no matter which branch ends the process.
// log.Fatal is banned in run() for this reason: it would exit around the
// flush.
type flusher struct {
	tracer      *obs.Tracer
	tracePath   string
	metricsPath string
	metrics     *obs.Registry
	explainDir  string
	manifest    func(*trend.Analysis, bool) trend.Manifest
	store       *serve.Store
	outDir      string
	artifacts   map[string]string // manifest key → path, recorded as written
	report      *os.File          // report.txt tee inside -out
	surv        *trend.Surveillance
	done        bool
}

// flush writes all pending artifacts. Safe to call more than once; only the
// first call writes.
func (fl *flusher) flush(analysis *trend.Analysis, interrupted bool) {
	if fl.done {
		return
	}
	fl.done = true
	if fl.tracer != nil {
		if err := writeTrace(fl.tracePath, fl.tracer); err != nil {
			log.Printf("warning: %v", err)
		} else {
			fmt.Printf("wrote trace (%d spans) to %s\n", fl.tracer.Len(), fl.tracePath)
			fl.record("trace", fl.tracePath)
		}
	}
	if fl.metricsPath != "" {
		if err := writeMetrics(fl.metricsPath, fl.metrics); err != nil {
			log.Printf("warning: %v", err)
		} else {
			fl.record("metrics", fl.metricsPath)
		}
	}
	if fl.explainDir != "" && analysis != nil {
		man := fl.manifest(analysis, interrupted)
		if err := trend.WriteExplain(fl.explainDir, analysis, man); err != nil {
			log.Printf("warning: %v", err)
		} else {
			fmt.Printf("wrote explain artifacts (%d series) to %s\n", len(analysis.SeriesProvenance), fl.explainDir)
			fl.record("explain", fl.explainDir)
		}
	}
	if fl.outDir != "" && analysis != nil {
		man := outManifest{
			Manifest:     fl.manifest(analysis, interrupted),
			StageTimings: stageTimings(fl.metrics),
			Artifacts:    fl.artifacts,
		}
		if fl.surv != nil {
			man.SurveilNodes = len(fl.surv.Nodes)
			man.SurveilDetections = len(fl.surv.Detected())
			man.SurveilOffsets = len(fl.surv.Offsets)
		}
		path := filepath.Join(fl.outDir, "manifest.json")
		if err := writeJSONFile(path, man); err != nil {
			log.Printf("warning: %v", err)
		} else {
			fmt.Printf("wrote artifact manifest to %s\n", path)
		}
	}
	if fl.report != nil {
		if err := fl.report.Close(); err != nil {
			log.Printf("warning: closing report: %v", err)
		}
	}
	if fl.store != nil {
		// Every flush path is an orderly close — even an interrupted run
		// leaves only fully committed months behind — so the next open
		// reports a clean shutdown rather than a crash recovery.
		if err := fl.store.MarkCleanShutdown(int64(len(fl.store.Months()))); err != nil {
			log.Printf("warning: marking checkpoint store clean: %v", err)
		}
		if err := fl.store.Close(); err != nil {
			log.Printf("warning: closing checkpoint store: %v", err)
		}
	}
}

// record notes a written artifact for the -out manifest.
func (fl *flusher) record(name, path string) {
	if fl.artifacts != nil {
		fl.artifacts[name] = path
	}
}

// fail flushes and logs the error; run returns its result as the exit code.
func (fl *flusher) fail(analysis *trend.Analysis, err error) int {
	fl.flush(analysis, false)
	log.Print(err)
	return exitError
}

func run() int {
	var (
		in            = flag.String("in", "", "input corpus (.jsonl, .jsonl.gz, or .micc)")
		format        = flag.String("format", "auto", "input format: auto (sniff magic bytes), jsonl, or columnar")
		generate      = flag.Bool("generate", false, "generate a synthetic corpus instead of reading one")
		months        = flag.Int("months", 36, "months when generating")
		records       = flag.Int("records", 1000, "records/month when generating")
		seed          = flag.Uint64("seed", 7, "seed when generating")
		method        = flag.String("method", "binary", "change point search: exact or binary")
		seasonal      = flag.Bool("seasonal", true, "include the 12-month seasonal component")
		minTotal      = flag.Float64("min-total", 10, "minimum total frequency for a series to be analyzed")
		top           = flag.Int("top", 20, "number of strongest changes to print per kind")
		workers       = flag.Int("workers", 0, "worker pool size for model fitting and change point detection (0 = GOMAXPROCS)")
		scanWorkers   = flag.Int("scan-workers", 0, "max workers one exact change point scan may claim from the shared -workers budget (0 = auto: soak up idle workers, 1 = serial scans)")
		emerging      = flag.Int("emerging", 0, "also project the detected upward prescription trends this many months ahead")
		hierarchy     = flag.Bool("hierarchy", false, "roll series up the class hierarchy, scan the aggregates, and emit a drill-down surveillance report (hierarchy from the catalog under -generate, else from -hierarchy-file)")
		hierarchyFile = flag.String("hierarchy-file", "", "JSON code-level hierarchy for -in corpora: {\"medicine_class\":{code:class}, \"class_group\":{class:group}, \"disease_group\":{code:group}}")
		outDir        = flag.String("out", "", "write every run artifact (report.txt, manifest.json, metrics.json, trace.json, series.csv, explain/, surveillance.*) under this directory")
		csvPath       = flag.String("csv", "", "write the reproduced prescription series to this CSV file (deprecated: prefer -out DIR, which writes DIR/series.csv)")
		strict        = flag.Bool("strict", false, "abort on the first malformed corpus line instead of skipping it")
		maxFailures   = flag.Int("max-failures", -1, "exit nonzero when more than this many series/months fail (-1 = never)")
		progress      = flag.Bool("progress", false, "log pipeline progress events (stages, fitted months, finished series)")
		metricsPath   = flag.String("metrics", "", "write the run's metrics registry as JSON to this file, \"-\" = stdout (deprecated: prefer -out DIR, which writes DIR/metrics.json)")
		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's duration")
		tracePath     = flag.String("trace", "", "write the run's spans as Chrome Trace Event JSON to this file (deprecated: prefer -out DIR, which writes DIR/trace.json)")
		explainDir    = flag.String("explain", "", "write decision-provenance artifacts under this directory (deprecated: prefer -out DIR, which writes DIR/explain)")
		promAddr      = flag.String("prom", "", "serve Prometheus text metrics on this address at /metrics (the -pprof mux serves it too)")
		ckptDir       = flag.String("checkpoint", "", "durable per-month checkpoint directory: fits are persisted there and reused on reruns over the same corpus")
	)
	flag.Parse()

	if *hierarchy && !*generate && *hierarchyFile == "" {
		log.Print("-hierarchy needs a hierarchy source: -generate (catalog) or -hierarchy-file")
		return exitUsage
	}

	// -out consolidates the artifact layout; the older single-artifact flags
	// override their path inside it.
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Print(err)
			return exitError
		}
		if *explainDir == "" {
			*explainDir = filepath.Join(*outDir, "explain")
		}
		if *metricsPath == "" {
			*metricsPath = filepath.Join(*outDir, "metrics.json")
		}
		if *tracePath == "" {
			*tracePath = filepath.Join(*outDir, "trace.json")
		}
		if *csvPath == "" {
			*csvPath = filepath.Join(*outDir, "series.csv")
		}
	}

	// DefaultServeMux carries the pprof handlers (blank import), the expvar
	// page at /debug/vars (expvar is linked in through the obs registry
	// bridge), and the Prometheus exposition at /metrics — every debug
	// listener serves all three.
	metrics := obs.NewRegistry()
	metrics.PublishExpvar("mictrend")
	http.Handle("/metrics", metrics.PrometheusHandler("mictrend"))
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("warning: pprof server: %v", err)
			}
		}()
	}
	if *promAddr != "" && *promAddr != *pprofAddr {
		go func() {
			log.Printf("prometheus metrics on http://%s/metrics", *promAddr)
			if err := http.ListenAndServe(*promAddr, nil); err != nil {
				log.Printf("warning: prometheus server: %v", err)
			}
		}()
	}

	// Interrupt cancels the analysis; a partial report is still printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var ds *mic.Dataset
	var truth *micgen.Truth
	var err error
	switch {
	case *generate:
		ds, truth, err = micgen.Generate(micgen.Config{Seed: *seed, Months: *months, RecordsPerMonth: *records})
	case *in != "":
		f, ferr := mic.ParseFormat(*format)
		if ferr != nil {
			log.Print(ferr)
			return exitUsage
		}
		var stats mic.ReadStats
		ds, stats, _, err = mic.ReadDatasetFile(*in, f, mic.StorageOptions{Read: mic.ReadOptions{Strict: *strict}})
		if stats.SkippedLines > 0 {
			log.Printf("warning: skipped %d malformed corpus line(s); first: %v (use -strict to fail fast)",
				stats.SkippedLines, stats.FirstError)
		}
	default:
		flag.Usage()
		return exitUsage
	}
	if err != nil {
		log.Print(err)
		return exitError
	}

	opts := trend.DefaultOptions()
	opts.Seasonal = *seasonal
	opts.MinSeriesTotal = *minTotal
	opts.Workers = *workers
	opts.ScanWorkers = *scanWorkers
	switch *method {
	case "exact":
		opts.Method = trend.MethodExact
	case "binary":
		opts.Method = trend.MethodBinary
	default:
		log.Printf("unknown method %q (want exact or binary)", *method)
		return exitUsage
	}
	opts.Metrics = metrics
	if *progress {
		opts.Observer = func(e obs.Event) { log.Print(e) }
	}
	fl := &flusher{metricsPath: *metricsPath, metrics: metrics, explainDir: *explainDir, outDir: *outDir}
	if *outDir != "" {
		fl.artifacts = make(map[string]string)
	}
	defer fl.flush(nil, false) // backstop for panics and early returns
	if *tracePath != "" {
		fl.tracer = obs.NewTracer()
		fl.tracePath = *tracePath
		opts.Trace = fl.tracer.Observe
	}
	opts.Explain = *explainDir != ""
	fl.manifest = func(analysis *trend.Analysis, interrupted bool) trend.Manifest {
		man := trend.BuildManifest(opts, analysis)
		man.Version = version
		man.Records = ds.NumRecords()
		man.Interrupted = interrupted
		if *generate {
			man.Seed = *seed
		}
		return man
	}
	if *ckptDir != "" {
		store, report, err := serve.Open(*ckptDir, metrics)
		if err != nil {
			log.Print(err)
			return exitError
		}
		fl.store = store
		opts.Checkpoint = store
		if report.Recovered() {
			log.Printf("checkpoint store %s: %s", *ckptDir, report)
		}
	}

	// The human-readable report goes to stdout and, under -out, is tee'd
	// into report.txt so the artifact directory is self-contained.
	var rep io.Writer = os.Stdout
	if *outDir != "" {
		path := filepath.Join(*outDir, "report.txt")
		rf, err := os.Create(path)
		if err != nil {
			return fl.fail(nil, err)
		}
		fl.report = rf
		fl.record("report", path)
		rep = io.MultiWriter(os.Stdout, rf)
	}

	fmt.Fprintf(rep, "analyzing %d months, %d records, %s search…\n", ds.T(), ds.NumRecords(), opts.Method)
	analysis, err := trend.Analyze(ctx, ds, opts)
	interrupted := false
	switch {
	case errors.Is(err, context.Canceled):
		if analysis == nil {
			fl.flush(nil, true)
			log.Print("interrupted before any results were available")
			return exitInterrupt
		}
		log.Print("warning: interrupted — reporting partial results")
		interrupted = true
	case err != nil:
		return fl.fail(analysis, err)
	}
	causes := trend.ClassifyChanges(analysis, 2)

	if *csvPath != "" {
		if err := writeCSV(*csvPath, analysis, ds); err != nil {
			return fl.fail(analysis, err)
		}
		fmt.Printf("wrote reproduced series to %s\n", *csvPath)
		fl.record("series_csv", *csvPath)
	}

	printKind := func(name string, dets []trend.Detection, describe func(trend.Detection) string) {
		detected := trend.DetectedChangePoints(dets)
		fmt.Fprintf(rep, "\n%s series: %d analyzed, %d with change points\n", name, len(dets), len(detected))
		n := *top
		if n > len(detected) {
			n = len(detected)
		}
		for _, d := range detected[:n] {
			improvement := d.Result.NoChangeAIC - d.Result.AIC
			fmt.Fprintf(rep, "  month %2d (ΔAIC %6.2f)  %s\n", d.Result.ChangePoint, improvement, describe(d))
		}
	}
	printKind("disease", analysis.Diseases, func(d trend.Detection) string {
		return ds.Diseases.Code(int32(d.Disease))
	})
	printKind("medicine", analysis.Medicines, func(d trend.Detection) string {
		return ds.Medicines.Code(int32(d.Medicine))
	})
	printKind("prescription", analysis.Prescriptions, func(d trend.Detection) string {
		cause := causes[mic.Pair{Disease: d.Disease, Medicine: d.Medicine}]
		return fmt.Sprintf("%s ← %s [%s]",
			ds.Medicines.Code(int32(d.Medicine)), ds.Diseases.Code(int32(d.Disease)), cause)
	})

	fmt.Fprintf(rep, "\ntotal model fits: %d\n", analysis.TotalFits)
	printStageSummary(rep, metrics)
	counts := map[trend.Cause]int{}
	for _, c := range causes {
		counts[c]++
	}
	fmt.Fprintf(rep, "prescription change causes: %d disease-derived, %d medicine-derived, %d prescription-derived, %d unchanged\n",
		counts[trend.CauseDisease], counts[trend.CauseMedicine], counts[trend.CausePrescription], counts[trend.CauseNone])

	if *emerging > 0 {
		list, err := trend.EmergingTrends(analysis.Prescriptions, *seasonal, *emerging)
		if err != nil {
			log.Printf("warning: some emerging-trend projections failed: %v", err)
		}
		fmt.Fprintf(rep, "\nemerging prescriptions (projected %d months ahead):\n", *emerging)
		n := *top
		if n > len(list) {
			n = len(list)
		}
		for _, e := range list[:n] {
			fmt.Fprintf(rep, "  %s ← %s: broke at month %d, +%.2f/month, now %.1f, projected %+.1f\n",
				ds.Medicines.Code(int32(e.Medicine)), ds.Diseases.Code(int32(e.Disease)),
				e.ChangePoint, e.SlopePerMonth, e.LastValue, e.ProjectedGrowth)
		}
	}

	if *hierarchy && !interrupted {
		code, serr := runSurveillance(ctx, rep, fl, ds, truth, *hierarchyFile, opts, analysis, *outDir)
		if code != exitOK {
			return code
		}
		if errors.Is(serr, context.Canceled) {
			log.Print("warning: interrupted — the surveillance report above is partial")
			interrupted = true
		}
	}

	if n := len(analysis.Failures); n > 0 {
		fmt.Fprintf(rep, "\n%d series/month(s) failed and were skipped:\n", n)
		const maxShown = 10
		for i, f := range analysis.Failures {
			if i == maxShown {
				fmt.Fprintf(rep, "  … and %d more\n", n-maxShown)
				break
			}
			fmt.Fprintf(rep, "  %s\n", f)
		}
		if *maxFailures >= 0 && n > *maxFailures {
			return fl.fail(analysis, fmt.Errorf("%d failures exceed -max-failures=%d", n, *maxFailures))
		}
	}
	fl.flush(analysis, interrupted)
	if interrupted {
		return exitInterrupt // the report above is partial
	}
	return exitOK
}

// runSurveillance rolls the analysis up the hierarchy, drills detected
// aggregate breaks down, and renders the report to rep (and, under -out, to
// surveillance.txt plus the surveillance.json tree). Returns exitOK and
// Surveil's error (nil, or context.Canceled for a partial tree) on success
// paths; any other exit code means run should return it.
func runSurveillance(ctx context.Context, rep io.Writer, fl *flusher, ds *mic.Dataset, truth *micgen.Truth,
	hierarchyFile string, opts trend.Options, analysis *trend.Analysis, outDir string) (int, error) {
	h, err := loadHierarchy(ds, truth, hierarchyFile)
	if err != nil {
		return fl.fail(analysis, err), nil
	}
	surv, serr := trend.Surveil(ctx, ds, trend.SurveilOptions{
		Hierarchy: h,
		Pipeline:  opts,
		Analysis:  analysis, // reuse the fitted models and reproduced series
	})
	if surv == nil {
		return fl.fail(analysis, serr), nil
	}
	if serr != nil && !errors.Is(serr, context.Canceled) {
		log.Printf("warning: surveillance degraded: %v", serr)
	}
	fl.surv = surv
	var buf bytes.Buffer
	if err := surv.WriteReport(&buf, ds); err != nil {
		return fl.fail(analysis, err), nil
	}
	fmt.Fprintln(rep)
	if _, err := rep.Write(buf.Bytes()); err != nil {
		return fl.fail(analysis, err), nil
	}
	if outDir != "" {
		txt := filepath.Join(outDir, "surveillance.txt")
		if err := os.WriteFile(txt, buf.Bytes(), 0o644); err != nil {
			return fl.fail(analysis, err), nil
		}
		fl.record("surveillance_report", txt)
		js := filepath.Join(outDir, "surveillance.json")
		if err := writeJSONFile(js, surv); err != nil {
			return fl.fail(analysis, err), nil
		}
		fl.record("surveillance", js)
	}
	return exitOK, serr
}

// loadHierarchy resolves the surveillance hierarchy: catalog-derived for
// generated corpora, code-level JSON maps (-hierarchy-file) for real ones.
func loadHierarchy(ds *mic.Dataset, truth *micgen.Truth, path string) (trend.Hierarchy, error) {
	if path != "" {
		raw, err := os.ReadFile(path)
		if err != nil {
			return trend.Hierarchy{}, err
		}
		var hf struct {
			MedicineClass map[string]string `json:"medicine_class"`
			ClassGroup    map[string]string `json:"class_group"`
			DiseaseGroup  map[string]string `json:"disease_group"`
		}
		if err := json.Unmarshal(raw, &hf); err != nil {
			return trend.Hierarchy{}, fmt.Errorf("parsing hierarchy file %s: %w", path, err)
		}
		return trend.HierarchyFromCodes(ds, hf.MedicineClass, hf.ClassGroup, hf.DiseaseGroup), nil
	}
	if truth == nil || truth.Catalog == nil {
		return trend.Hierarchy{}, errors.New("-hierarchy needs -generate (catalog hierarchy) or -hierarchy-file")
	}
	c := truth.Catalog
	return trend.HierarchyFromCodes(ds, c.MedicineClasses(), c.ClassGroups, c.DiseaseGroups()), nil
}

// writeCSV dumps the reproduced prescription series for external plotting.
func writeCSV(path string, analysis *trend.Analysis, ds *mic.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := analysis.Series.WriteCSV(f, ds.Diseases, ds.Medicines); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageTiming is one row of the per-stage wall-clock breakdown, shared by
// the -progress console table and the -out manifest's stage_timings section.
type stageTiming struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
	Percent float64 `json:"percent"`
}

// stageTimings collects the registry's "time/stage/*" timers in pipeline
// order (model → reproduce → detect → surveil, then anything new lexically),
// with each stage's share of the total. Empty when no stage ran.
func stageTimings(metrics *obs.Registry) []stageTiming {
	snap := metrics.Snapshot()
	const prefix = "time/stage/"
	var names []string
	var total time.Duration
	for name := range snap.Timings {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
			total += time.Duration(snap.Timings[name].TotalNS)
		}
	}
	if len(names) == 0 || total <= 0 {
		return nil
	}
	order := map[string]int{"model": 0, "reproduce": 1, "detect": 2, "surveil": 3, "surveil-drill": 4}
	sort.Slice(names, func(a, b int) bool {
		sa, sb := strings.TrimPrefix(names[a], prefix), strings.TrimPrefix(names[b], prefix)
		oa, oka := order[sa]
		ob, okb := order[sb]
		if oka && okb {
			return oa < ob
		}
		if oka != okb {
			return oka
		}
		return sa < sb
	})
	rows := make([]stageTiming, 0, len(names))
	for _, name := range names {
		d := time.Duration(snap.Timings[name].TotalNS)
		rows = append(rows, stageTiming{
			Stage:   strings.TrimPrefix(name, prefix),
			Seconds: d.Seconds(),
			Percent: 100 * float64(d) / float64(total),
		})
	}
	return rows
}

// printStageSummary renders the per-stage wall-clock table from the
// registry's "time/stage/*" timers, in pipeline order.
func printStageSummary(w io.Writer, metrics *obs.Registry) {
	rows := stageTimings(metrics)
	if len(rows) == 0 {
		return
	}
	var total time.Duration
	for _, r := range rows {
		total += time.Duration(r.Seconds * float64(time.Second))
	}
	fmt.Fprintf(w, "\nstage wall-clock:\n")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-13s %12s  %5.1f%%\n",
			r.Stage, time.Duration(r.Seconds*float64(time.Second)).Round(time.Millisecond), r.Percent)
	}
	fmt.Fprintf(w, "  %-13s %12s\n", "total", total.Round(time.Millisecond))
}

// writeTrace dumps the collected spans as Chrome Trace Event JSON.
func writeTrace(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps the registry snapshot as indented JSON ("-" = stdout).
func writeMetrics(path string, metrics *obs.Registry) error {
	snap := metrics.Snapshot()
	if path == "-" {
		return snap.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSONFile writes v as indented JSON.
func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
