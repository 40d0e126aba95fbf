package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestPercentileKeepsTenBeyondP75 pins the publish_p75_s rule: over the 43
// folds of the ladder, p75 is the highest percentile with at least ten
// samples beyond it.
func TestPercentileKeepsTenBeyondP75(t *testing.T) {
	xs := make([]float64, 43)
	for i := range xs {
		xs[i] = float64(43 - i) // unsorted on purpose
	}
	p75 := percentile(xs, 75)
	beyond := 0
	for _, x := range xs {
		if x > p75 {
			beyond++
		}
	}
	if beyond < 10 {
		t.Fatalf("p75 = %v leaves %d samples beyond it, want at least 10", p75, beyond)
	}
	if p80 := percentile(xs, 80); p80 == p75 {
		t.Fatalf("p80 = p75 = %v: a higher percentile would keep ten beyond too", p80)
	}
	if got := percentile(xs, 50); got != 22 {
		t.Fatalf("p50 of 1..43 = %v, want 22", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

// TestOpenLoopChargesStallToLaterCalls checks that a stalled call delays the
// calls due behind it, and that their latency counts from when they were due.
func TestOpenLoopChargesStallToLaterCalls(t *testing.T) {
	const (
		period = 5 * time.Millisecond
		stall  = 60 * time.Millisecond
	)
	stop := make(chan struct{})
	samples := openLoop(time.Now(), period, stop, func(i int) error {
		if i == 1 {
			time.Sleep(stall)
		}
		if i == 7 {
			close(stop)
		}
		return nil
	})
	if len(samples) != 8 {
		t.Fatalf("got %d samples, want 8", len(samples))
	}
	// Call 2 was due one period after call 1 started; it could only be sent
	// once the stall ended.
	if got, want := samples[2].Lateness, stall-period; got < want {
		t.Fatalf("call 2 sent %v late, want at least %v", got, want)
	}
	for i, s := range samples {
		if s.Latency < s.Lateness {
			t.Fatalf("call %d: latency %v below lateness %v", i, s.Latency, s.Lateness)
		}
	}
	if samples[1].Latency < stall {
		t.Fatalf("stalled call latency %v, want at least %v", samples[1].Latency, stall)
	}
}

// smoke runs a workload at tiny sizes with the traced pass on and checks it
// reports every metric and writes its trace.
func smoke(t *testing.T, workload string) {
	if testing.Short() {
		t.Skip("runs the workload")
	}
	cfg := runConfig{Seed: 3, Budget: time.Millisecond, Trace: true, Workers: 2, Tiny: true, WorkDir: t.TempDir(), OutDir: t.TempDir()}
	rep, err := workloads[workload](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collect(endToEnd, rep.E2E, true); err != nil {
		t.Fatal(err)
	}
	if _, err := collect(perLayer, rep.Layers, false); err != nil {
		t.Fatal(err)
	}
	if rep.Attempted == 0 || rep.Failed != 0 {
		t.Fatalf("attempted %d, failed %d", rep.Attempted, rep.Failed)
	}
	for _, name := range []string{"trace.coverage", "trace.overhead"} {
		if rep.Layers[name] <= 0 {
			t.Fatalf("%s = %v", name, rep.Layers[name])
		}
	}
	if _, err := os.Stat(rep.TracePath); err != nil {
		t.Fatal(err)
	}
}

func TestSmokeBatchScan(t *testing.T)    { smoke(t, "batch-scan") }
func TestSmokeBatchRecords(t *testing.T) { smoke(t, "batch-records") }
func TestSmokeServeMixed(t *testing.T)   { smoke(t, "serve-mixed") }

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json and the
// metric tables here in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		json []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}
