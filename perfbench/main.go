// Command perfbench is the repository benchmark. It drives mictrend's two user
// paths — the trendscan batch pipeline and the trendserve serving stack — on
// inputs generated from a seed, checks the outputs, and prints one JSON result
// line: the end-to-end metrics of an untraced run (--trace 0), or the
// per-layer breakdown of a traced run (--trace 1).
//
//	bash perfbench/run.sh --workload batch-scan --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how to read a trace.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a --trace 0 run reports, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mib", "MiB"},
	{"peak_rss_mib", "MiB"},
}

// perLayer lists the metrics a --trace 1 run reports. A metric that belongs
// to another workload's layers reads 0.
var perLayer = []metricDef{
	{"mic.decode_s", "s"},
	{"mic.filter_s", "s"},
	{"medmodel.em_s", "s"},
	{"medmodel.em_iterations", "count"},
	{"medmodel.reproduce_s", "s"},
	{"changepoint.detect_s", "s"},
	{"changepoint.series", "count"},
	{"changepoint.fits_per_series", "fits/series"},
	{"changepoint.prefix_resumes", "count"},
	{"ssm.lik_evals", "count"},
	{"ssm.restarts", "count"},
	{"kalman.steady_share", "ratio"},
	{"trend.surveil_s", "s"},
	{"trend.surveil_fits", "count"},
	{"trend.ckpt_reuse_share", "ratio"},
	{"serve.fold_model_s", "s"},
	{"serve.fold_reproduce_s", "s"},
	{"serve.fold_detect_s", "s"},
	{"serve.fold_core_s", "s"},
	{"serve.queue_wait_s", "s"},
	{"serve.handler_read_us.series", "us"},
	{"serve.handler_read_us.detections", "us"},
	{"serve.handler_read_us.epoch", "us"},
	{"serve.http_read_us", "us"},
	{"serve.read_lateness_ms", "ms"},
	{"serve.state_mib", "MiB"},
	{"serve.open_s", "s"},
	{"publish_p50_s", "s"},
	{"publish_p75_s", "s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"read_samples", "count"},
	{"reads_per_s", "1/s"},
	{"recover_s", "s"},
	{"failed_frac", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// runConfig is what every workload receives.
type runConfig struct {
	Seed    uint64
	Budget  time.Duration // how long the repeated measured phase runs
	Trace   bool          // also run the traced pass and report per-layer metrics
	Workers int           // pipeline Workers, equal to GOMAXPROCS
	Tiny    bool          // smoke-test sizes for the tests: same code path, seconds not minutes
	WorkDir string        // scratch space for corpus files and serving state
	OutDir  string        // where the traced pass writes its Chrome Trace
}

// report is one workload run's outcome.
type report struct {
	// E2E holds the end-to-end metrics by name, Layers the per-layer ones
	// (filled only when the run is traced).
	E2E, Layers map[string]float64
	// Attempted and Failed count the run's operations: months and series for
	// the batch workloads, HTTP requests for the serving one.
	Attempted, Failed int
	// TracePath is the Chrome Trace the traced pass wrote, if any.
	TracePath string
}

// errCheck marks an output check that failed: the program computed something
// other than the reference.
var errCheck = errors.New("output check failed")

// checkf returns an errCheck-wrapped error.
func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig) (*report, error){
	"batch-scan":    runBatchScan,
	"batch-records": runBatchRecords,
	"serve-mixed":   runServeMixed,
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: batch-scan, batch-records or serve-mixed")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 20, "length of the repeated measured phase, in seconds")
		trace    = flag.Int("trace", 0, "0: report end-to-end metrics; 1: also run the traced pass and report per-layer metrics")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}

	nproc := runtime.NumCPU()
	if s := os.Getenv("GOMAXPROCS"); s != "" {
		if n, err := strconv.Atoi(s); err != nil || n > nproc {
			fmt.Fprintf(os.Stderr, "perfbench: refusing GOMAXPROCS=%s: the benchmark runs with at most nproc=%d\n", s, nproc)
			return 2
		}
	}
	runtime.GOMAXPROCS(nproc)

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	cfg := runConfig{
		Seed:    *seed,
		Budget:  time.Duration(*seconds) * time.Second,
		Trace:   *trace == 1,
		Workers: nproc,
		WorkDir: work,
		OutDir:  ".bench_out",
	}
	st := newStamp(*workload, cfg)
	stampJSON, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", stampJSON)

	rep, runErr := drive(cfg)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, runErr)
		if !errors.Is(runErr, errCheck) {
			return 1
		}
	}
	res := result{Correct: runErr == nil}
	if rep != nil {
		res.Attempted, res.Failed = rep.Attempted, rep.Failed
		defs, values := endToEnd, rep.E2E
		if cfg.Trace {
			defs, values = perLayer, rep.Layers
		}
		var err error
		if res.Metrics, err = collect(defs, values, res.Correct && !cfg.Trace); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
			return 1
		}
		if rep.TracePath != "" {
			fmt.Printf("trace %s\n", rep.TracePath)
		}
	}
	if err := writeStamp(cfg.OutDir, *workload, st, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: warning:", err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// collect turns a workload's values into the result's metric map, in the
// order and units of defs. Every name a workload reports must be listed in
// defs; with strict set, every listed name must be reported too (per-layer
// metrics of another workload's layers default to 0).
func collect(defs []metricDef, values map[string]float64, strict bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && strict {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	var unknown []string
	for name := range values {
		if _, ok := out[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics %v are not declared", unknown)
	}
	return out, nil
}

// writeStamp records the stamp next to the result it belongs to, so a stored
// result always says where and how it was measured.
func writeStamp(dir, workload string, st stamp, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", workload, st.Seed, st.Trace)
	raw, err := json.MarshalIndent(struct {
		Stamp  stamp  `json:"stamp"`
		Result result `json:"result"`
	}{st, res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
}
