package trend

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mictrend/internal/faultpoint"
	"mictrend/internal/mic"
	"mictrend/internal/micgen"
)

// faultCorpus is a corpus small enough for fast exact scans but with enough
// series to exercise the pool.
func faultCorpus(t *testing.T) *faultEnv {
	t.Helper()
	ds, _, err := micgen.Generate(micgen.Config{
		Seed:            11,
		Months:          24,
		RecordsPerMonth: 400,
		BulkDiseases:    4,
		BulkMedicines:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Method = MethodBinary
	opts.Seasonal = false
	opts.MinSeriesTotal = 200
	return &faultEnv{ds: ds, opts: opts}
}

type faultEnv struct {
	ds   *mic.Dataset
	opts Options
}

func (e *faultEnv) dataset() *mic.Dataset { return e.ds }

// detectionsByKey indexes every detection of an analysis by its series key.
func detectionsByKey(a *Analysis) map[string]Detection {
	out := make(map[string]Detection)
	for _, group := range [][]Detection{a.Diseases, a.Medicines, a.Prescriptions} {
		for _, det := range group {
			out[det.Key().String()] = det
		}
	}
	return out
}

// pickVictim returns the key of a mid-list series to sabotage.
func pickVictim(a *Analysis) string {
	if len(a.Medicines) > 0 {
		return a.Medicines[len(a.Medicines)/2].Key().String()
	}
	if len(a.Prescriptions) > 0 {
		return a.Prescriptions[0].Key().String()
	}
	return a.Diseases[0].Key().String()
}

// TestInjectedFailureDegradesOneSeries is the acceptance-criteria test: an
// injected fit failure in one series must not abort Analyze — the run
// completes, the failed series appears in Failures, and every other
// detection is byte-identical to the fault-free run.
func TestInjectedFailureDegradesOneSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	env := faultCorpus(t)
	faultpoint.Reset()
	clean, err := Analyze(context.Background(), env.dataset(), env.opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Failures) != 0 {
		t.Fatalf("fault-free run recorded failures: %v", clean.Failures)
	}
	victim := pickVictim(clean)

	for _, tc := range []struct {
		name     string
		spec     faultpoint.Spec
		panicked bool
	}{
		{name: "error", spec: faultpoint.Spec{}, panicked: false},
		{name: "panic", spec: faultpoint.Spec{Panic: true}, panicked: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faultpoint.Reset()
			defer faultpoint.Reset()
			spec := tc.spec
			spec.Match = func(detail string) bool { return detail == victim }
			faultpoint.Enable("trend/detect", spec)
			faulty, err := Analyze(context.Background(), env.dataset(), env.opts)
			if err != nil {
				t.Fatalf("injected fault aborted Analyze: %v", err)
			}
			if len(faulty.Failures) != 1 {
				t.Fatalf("failures = %v, want exactly the injected one", faulty.Failures)
			}
			f := faulty.Failures[0]
			if f.Stage != StageDetect || f.Panicked != tc.panicked {
				t.Fatalf("failure = %+v, want StageDetect with Panicked=%v", f, tc.panicked)
			}
			if got := f.Key().String(); got != victim {
				t.Fatalf("failed series = %s, want %s", got, victim)
			}

			cleanDets := detectionsByKey(clean)
			faultyDets := detectionsByKey(faulty)
			if _, ok := faultyDets[victim]; ok {
				t.Fatal("failed series still has a detection")
			}
			if len(faultyDets) != len(cleanDets)-1 {
				t.Fatalf("faulty run has %d detections, want %d", len(faultyDets), len(cleanDets)-1)
			}
			for key, det := range faultyDets {
				if !reflect.DeepEqual(det, cleanDets[key]) {
					t.Fatalf("detection %s differs from fault-free run", key)
				}
			}
		})
	}
}

// TestPrefixResumePanicDegradesOneSeries pins the checkpoint-resume blast
// radius: a panic inside one prefix-ladder resume of the exact scan degrades
// only the series being scanned — the run completes, exactly that series is
// recorded as a StageDetect panic, and every other detection is
// byte-identical to the fault-free run.
func TestPrefixResumePanicDegradesOneSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	env := faultCorpus(t)
	env.opts.Method = MethodExact
	env.opts.Workers = 1
	faultpoint.Reset()
	clean, err := Analyze(context.Background(), env.dataset(), env.opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Failures) != 0 {
		t.Fatalf("fault-free run recorded failures: %v", clean.Failures)
	}

	faultpoint.Reset()
	defer faultpoint.Reset()
	// The site's detail is the candidate month, not the series key, so a
	// one-shot budget picks the victim: the first series to run a ladder
	// (deterministic under Workers=1).
	faultpoint.Enable("changepoint/prefix-resume", faultpoint.Spec{Panic: true, Count: 1})
	faulty, err := Analyze(context.Background(), env.dataset(), env.opts)
	if err != nil {
		t.Fatalf("injected resume panic aborted Analyze: %v", err)
	}
	if len(faulty.Failures) != 1 {
		t.Fatalf("failures = %v, want exactly the injected one", faulty.Failures)
	}
	f := faulty.Failures[0]
	if f.Stage != StageDetect || !f.Panicked {
		t.Fatalf("failure = %+v, want a StageDetect panic", f)
	}
	victim := f.Key().String()

	cleanDets := detectionsByKey(clean)
	faultyDets := detectionsByKey(faulty)
	if _, ok := faultyDets[victim]; ok {
		t.Fatal("panicked series still has a detection")
	}
	if len(faultyDets) != len(cleanDets)-1 {
		t.Fatalf("faulty run has %d detections, want %d", len(faultyDets), len(cleanDets)-1)
	}
	for key, det := range faultyDets {
		if !reflect.DeepEqual(det, cleanDets[key]) {
			t.Fatalf("detection %s differs from fault-free run", key)
		}
	}
}

// TestAnalyzeDegradesOnEMMonthFailure injects an EM failure into one month
// and checks Analyze substitutes the fallback model and completes.
func TestAnalyzeDegradesOnEMMonthFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	env := faultCorpus(t)
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Enable("medmodel/fit-month", faultpoint.Spec{
		Match: func(detail string) bool { return detail == "3" },
	})
	analysis, err := Analyze(context.Background(), env.dataset(), env.opts)
	if err != nil {
		t.Fatalf("EM month failure aborted Analyze: %v", err)
	}
	var monthFails []Failure
	for _, f := range analysis.Failures {
		if f.Stage == StageModel {
			monthFails = append(monthFails, f)
		}
	}
	if len(monthFails) != 1 || monthFails[0].Month != 3 {
		t.Fatalf("model failures = %v, want one at month 3", monthFails)
	}
	if analysis.Models[3] == nil {
		t.Fatal("failed month was not degraded to a fallback model")
	}
	if len(analysis.Prescriptions) == 0 {
		t.Fatal("degraded run produced no detections")
	}
}

// TestCancelMidScanReturnsPartialResults cancels the context after a fixed
// number of series starts and checks Analyze returns promptly with the
// detections completed before the cancel, without leaking goroutines.
func TestCancelMidScanReturnsPartialResults(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	env := faultCorpus(t)
	env.opts.Workers = 1 // deterministic: series complete one at a time
	faultpoint.Reset()
	defer faultpoint.Reset()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const completeBefore = 4
	hits := 0
	faultpoint.Enable("trend/detect", faultpoint.Spec{
		// Never fires (Match returns false); used purely to observe hits and
		// cancel after the first few series completed.
		Match: func(string) bool {
			hits++
			if hits == completeBefore+1 {
				cancel()
			}
			return false
		},
	})

	before := runtime.NumGoroutine()
	start := time.Now()
	analysis, err := Analyze(ctx, env.dataset(), env.opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if analysis == nil {
		t.Fatal("cancelled Analyze returned no partial analysis")
	}
	got := len(analysis.Diseases) + len(analysis.Medicines) + len(analysis.Prescriptions)
	if got != completeBefore {
		t.Fatalf("partial detections = %d, want %d (workers=1, cancel at series %d)", got, completeBefore, completeBefore+1)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled scan took %v", elapsed)
	}
	// The pool must wind down: allow the runtime a moment to retire workers.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestAnalyzeDeterministicUnderWorkerCounts checks detections and failures
// are identical for any pool size, including with a fault injected.
func TestAnalyzeDeterministicUnderWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	env := faultCorpus(t)
	faultpoint.Reset()
	defer faultpoint.Reset()
	ref, err := Analyze(context.Background(), env.dataset(), env.opts)
	if err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(ref)
	faultpoint.Enable("trend/detect", faultpoint.Spec{
		Match: func(detail string) bool { return detail == victim },
	})
	var base *Analysis
	for _, workers := range []int{1, 2, 7} {
		opts := env.opts
		opts.Workers = workers
		a, err := Analyze(context.Background(), env.dataset(), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = a
			continue
		}
		if !reflect.DeepEqual(a.Diseases, base.Diseases) ||
			!reflect.DeepEqual(a.Medicines, base.Medicines) ||
			!reflect.DeepEqual(a.Prescriptions, base.Prescriptions) {
			t.Fatalf("workers=%d: detections differ from workers=1", workers)
		}
		if !reflect.DeepEqual(a.Failures, base.Failures) {
			t.Fatalf("workers=%d: failures differ from workers=1", workers)
		}
	}
}

// TestValidateJobsRejectsNonFinite checks the pre-detection validation stage.
func TestValidateJobsRejectsNonFinite(t *testing.T) {
	good := Detection{Kind: KindMedicine, Medicine: 1, Series: []float64{1, 2, 3}}
	nan := Detection{Kind: KindDisease, Disease: 2, Series: []float64{1, math.NaN(), 3}}
	inf := Detection{Kind: KindPrescription, Disease: 3, Medicine: 4, Series: []float64{1, 2, math.Inf(1)}}
	valid, fails := validateJobs([]Detection{good, nan, inf})
	if len(valid) != 1 || valid[0].Key().String() != "medicine:1" {
		t.Fatalf("valid = %v, want only medicine:1", valid)
	}
	if len(fails) != 2 {
		t.Fatalf("failures = %v, want 2", fails)
	}
	for _, f := range fails {
		if f.Stage != StageValidate {
			t.Fatalf("failure stage = %v, want validate", f.Stage)
		}
		if !strings.Contains(f.Err, "series value at month") {
			t.Fatalf("failure message %q lacks the offending month", f.Err)
		}
	}
}

// TestFailureString covers the report rendering.
func TestFailureString(t *testing.T) {
	f := Failure{Stage: StageModel, Month: 7, Err: "boom"}
	if got := f.String(); got != "model month 7: boom" {
		t.Fatalf("String() = %q", got)
	}
	f = Failure{Stage: StageDetect, Kind: KindPrescription, Disease: 1, Medicine: 2, Month: -1, Err: "bad fit", Attempts: 4}
	if got := f.String(); got != "detect prescription:1/2: bad fit (after 4 starts)" {
		t.Fatalf("String() = %q", got)
	}
}
