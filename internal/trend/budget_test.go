package trend

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"mictrend/internal/faultpoint"
)

func TestWorkerBudgetAcquireRelease(t *testing.T) {
	b := newWorkerBudget(2)
	ctx := context.Background()
	if err := b.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.acquire(ctx); err != nil {
		t.Fatal(err)
	}

	// The pool is empty: a third acquire must block until a release.
	acquired := make(chan error, 1)
	go func() {
		acquired <- b.acquire(ctx)
	}()
	select {
	case err := <-acquired:
		t.Fatalf("acquire on an empty budget returned %v without a release", err)
	case <-time.After(20 * time.Millisecond):
	}
	b.release(1)
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("acquire did not observe the released token")
	}
}

func TestWorkerBudgetAcquireCancelled(t *testing.T) {
	b := newWorkerBudget(1)
	if err := b.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestWorkerBudgetTryAcquire(t *testing.T) {
	b := newWorkerBudget(3)
	if got := b.tryAcquire(0); got != 0 {
		t.Fatalf("tryAcquire(0) = %d", got)
	}
	if got := b.tryAcquire(-2); got != 0 {
		t.Fatalf("tryAcquire(-2) = %d", got)
	}
	// Asking for more than the pool holds claims only what is idle.
	if got := b.tryAcquire(5); got != 3 {
		t.Fatalf("tryAcquire(5) on a full pool = %d, want 3", got)
	}
	if got := b.tryAcquire(1); got != 0 {
		t.Fatalf("tryAcquire on a drained pool = %d, want 0", got)
	}
	b.release(2)
	if got := b.tryAcquire(1); got != 1 {
		t.Fatalf("tryAcquire(1) after release = %d, want 1", got)
	}
}

// exactCorpus is faultCorpus retargeted at the exact scan: non-seasonal
// models keep the per-candidate fits cheap enough to scan every series
// exhaustively.
func exactCorpus(t *testing.T) *faultEnv {
	env := faultCorpus(t)
	env.opts.Method = MethodExact
	return env
}

// TestAnalyzeExactDeterministicAcrossBudgetSplits pins the two-level
// budget's contract: detections from the exact (warm-started, parallel)
// scan are byte-identical for every Workers × ScanWorkers split, because
// scan shards are carved by grain, never by worker count.
func TestAnalyzeExactDeterministicAcrossBudgetSplits(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	env := exactCorpus(t)
	var base *Analysis
	var baseOpts string
	for _, split := range []struct{ workers, scan int }{
		{1, 1}, {2, 0}, {3, 2}, {7, 0}, {4, 1},
	} {
		opts := env.opts
		opts.Workers = split.workers
		opts.ScanWorkers = split.scan
		a, err := Analyze(context.Background(), env.dataset(), opts)
		if err != nil {
			t.Fatalf("workers=%d scan=%d: %v", split.workers, split.scan, err)
		}
		if len(a.Failures) != 0 {
			t.Fatalf("workers=%d scan=%d: unexpected failures %v", split.workers, split.scan, a.Failures)
		}
		if base == nil {
			base, baseOpts = a, "workers=1 scan=1"
			continue
		}
		if !reflect.DeepEqual(detectionsByKey(a), detectionsByKey(base)) {
			t.Fatalf("workers=%d scan=%d: detections differ from %s", split.workers, split.scan, baseOpts)
		}
		if a.TotalFits != base.TotalFits {
			t.Fatalf("workers=%d scan=%d: TotalFits %d != %d", split.workers, split.scan, a.TotalFits, base.TotalFits)
		}
	}
}

// TestAnalyzeExactCandidateFaultDegradesOneSeries drives the changepoint
// fault site through the pipeline: one injected candidate-fit failure inside
// a parallel exact scan must fail only that series (StageDetect, everything
// else byte-identical to the clean run) — the shard error path composes with
// the pipeline's per-series degradation.
func TestAnalyzeExactCandidateFaultDegradesOneSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	env := exactCorpus(t)
	env.opts.Workers = 1 // deterministic victim: the first series to fit the candidate
	faultpoint.Reset()
	clean, err := Analyze(context.Background(), env.dataset(), env.opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Failures) != 0 {
		t.Fatalf("fault-free run recorded failures: %v", clean.Failures)
	}

	defer faultpoint.Reset()
	faultpoint.Enable("changepoint/candidate", faultpoint.Spec{
		Match: func(detail string) bool { return detail == "5" },
		Count: 1,
	})
	faulty, err := Analyze(context.Background(), env.dataset(), env.opts)
	if err != nil {
		t.Fatalf("injected candidate fault aborted Analyze: %v", err)
	}
	if len(faulty.Failures) != 1 {
		t.Fatalf("failures = %v, want exactly the injected one", faulty.Failures)
	}
	f := faulty.Failures[0]
	if f.Stage != StageDetect || f.Panicked {
		t.Fatalf("failure = %+v, want a non-panic StageDetect entry", f)
	}
	victim := f.Key().String()

	cleanDets := detectionsByKey(clean)
	faultyDets := detectionsByKey(faulty)
	if _, ok := faultyDets[victim]; ok {
		t.Fatal("failed series still has a detection")
	}
	for key, det := range cleanDets {
		if key == victim {
			continue
		}
		got, ok := faultyDets[key]
		if !ok {
			t.Fatalf("series %s lost its detection", key)
		}
		if !reflect.DeepEqual(got, det) {
			t.Fatalf("series %s detection changed under the fault", key)
		}
	}
}
