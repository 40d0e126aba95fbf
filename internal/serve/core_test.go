package serve

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mictrend/internal/faultpoint"
	"mictrend/internal/mic"
	"mictrend/internal/obs"
)

func TestCoreIngestLifecycle(t *testing.T) {
	src := genServeCorpus(t, 4)
	c, rep, metrics := newTestCore(t, t.TempDir())
	if rep.Recovered() {
		t.Fatalf("fresh core reported recovery: %v", rep)
	}
	e := waitReady(t, c)
	if e.Seq != 1 || e.Months != 0 || e.Analysis != nil {
		t.Fatalf("empty store's first epoch = %+v, want seq 1, 0 months", e)
	}

	for i := 0; i < 4; i++ {
		idx, seq, err := c.Ingest(context.Background(), monthSlice(t, src, i), -1)
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if idx != i {
			t.Fatalf("month landed at %d, want %d", idx, i)
		}
		if seq != int64(i+2) {
			t.Fatalf("epoch after month %d = %d, want %d", i, seq, i+2)
		}
	}
	e = c.Epoch()
	if e.Months != 4 {
		t.Fatalf("final epoch covers %d months, want 4", e.Months)
	}
	if want := controlAnalysis(t, src, 4); !reflect.DeepEqual(e.Analysis, want) {
		t.Fatal("served analysis differs from the plain pipeline over the same corpus")
	}
	if len(e.DiseaseCodes) == 0 || len(e.MedicineCodes) == 0 {
		t.Fatal("epoch vocab snapshots are empty")
	}
	if got := metrics.Gauge("serve/epoch").Value(); got != 5 {
		t.Fatalf("serve/epoch gauge = %d, want 5", got)
	}
	if got := metrics.Gauge("serve/months").Value(); got != 4 {
		t.Fatalf("serve/months gauge = %d, want 4", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCoreCleanRestartResumes(t *testing.T) {
	src := genServeCorpus(t, 4)
	dir := t.TempDir()
	c, _, _ := newTestCore(t, dir)
	waitReady(t, c)
	ingestRange(t, c, src, 0, 2)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, rep, metrics := newTestCore(t, dir)
	if !rep.CleanShutdown {
		t.Fatal("graceful drain not recognized as a clean shutdown")
	}
	if !reflect.DeepEqual(rep.Months, []int{0, 1}) {
		t.Fatalf("recovered months = %v, want [0 1]", rep.Months)
	}
	if got := metrics.Counter("serve/recoveries").Value(); got != 1 {
		t.Fatalf("serve/recoveries = %d, want 1", got)
	}
	e := waitReady(t, c2)
	if e.Months != 2 {
		t.Fatalf("recovery epoch covers %d months, want 2", e.Months)
	}
	if want := controlAnalysis(t, src, 2); !reflect.DeepEqual(e.Analysis, want) {
		t.Fatal("recovery analysis differs from the plain pipeline")
	}
	// Every recovered model is reused, never refitted.
	if got := metrics.Counter("trend/ckpt_months_reused").Value(); got != 2 {
		t.Fatalf("reused %d checkpointed months during recovery, want 2", got)
	}
	ingestRange(t, c2, src, 2, 4)
	if want := controlAnalysis(t, src, 4); !reflect.DeepEqual(c2.Epoch().Analysis, want) {
		t.Fatal("post-restart ingest diverged from the plain pipeline")
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCoreCrashRecoveryByteIdentical is the tentpole contract: a crash
// injected at every stage boundary of the month-3 commit path loses only the
// in-flight month, and after restart plus re-ingest the final Analysis is
// bit-identical to an uninterrupted run. Crashes are simulated in-process:
// the injected panic poisons the core, which skips the clean-shutdown marker
// and leaves the directory exactly as a SIGKILL would.
func TestCoreCrashRecoveryByteIdentical(t *testing.T) {
	src := genServeCorpus(t, 4)
	control := controlAnalysis(t, src, 4)
	sites := []struct {
		name  string
		point string
		spec  faultpoint.Spec
	}{
		// Before the analysis starts.
		{"pre-analysis", "serve/fold", faultpoint.Spec{Panic: true}},
		// While reloading a committed month inside the pipeline.
		{"checkpoint-load", "trend/ckpt-load", faultpoint.Spec{
			Panic: true, Match: func(d string) bool { return d == "month-1" },
		}},
		// While persisting the freshly fitted month.
		{"checkpoint-save", "trend/ckpt-save", faultpoint.Spec{
			Panic: true, Match: func(d string) bool { return d == "month-2" },
		}},
		// Before the month file write.
		{"month-write", "serve/month-write", faultpoint.Spec{Panic: true}},
		// After the rename, before the WAL append: the classic torn commit.
		{"pre-wal", "serve/crash-pre-wal", faultpoint.Spec{Panic: true}},
		// Mid WAL append: half a frame lands on disk (the site itself writes
		// the torn frame, then panics).
		{"wal-torn", "serve/wal-torn", faultpoint.Spec{}},
	}
	for _, tc := range sites {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, _, _ := newTestCore(t, dir)
			waitReady(t, c)
			ingestRange(t, c, src, 0, 2)

			faultpoint.Enable(tc.point, tc.spec)
			_, _, err := c.Ingest(context.Background(), monthSlice(t, src, 2), 2)
			faultpoint.Reset()
			if !errors.Is(err, ErrPoisoned) {
				t.Fatalf("crashed ingest returned %v, want ErrPoisoned", err)
			}
			// A poisoned core refuses everything and will not write the
			// clean-shutdown marker.
			if _, _, err := c.Ingest(context.Background(), monthSlice(t, src, 2), 2); !errors.Is(err, ErrPoisoned) {
				t.Fatalf("post-crash ingest returned %v, want ErrPoisoned", err)
			}
			if err := c.Close(); !errors.Is(err, ErrPoisoned) {
				t.Fatalf("poisoned Close returned %v, want ErrPoisoned", err)
			}

			// Restart: recovery rolls back to the last committed prefix.
			c2, rep, _ := newTestCore(t, dir)
			defer c2.Close()
			if rep.CleanShutdown {
				t.Fatal("a crash was reported as a clean shutdown")
			}
			if !reflect.DeepEqual(rep.Months, []int{0, 1}) {
				t.Fatalf("recovered months = %v, want [0 1]", rep.Months)
			}
			if tc.point == "serve/wal-torn" && rep.TruncatedBytes == 0 {
				t.Fatal("torn WAL frame was not truncated")
			}
			if tc.point == "serve/crash-pre-wal" && rep.Orphans == 0 {
				t.Fatal("orphaned month file was not swept")
			}
			e := waitReady(t, c2)
			if e.Months != 2 {
				t.Fatalf("recovery epoch covers %d months, want 2", e.Months)
			}
			if want := controlAnalysis(t, src, 2); !reflect.DeepEqual(e.Analysis, want) {
				t.Fatal("recovery analysis differs from the uninterrupted 2-month run")
			}

			// Re-ingest the lost month and the one after: byte identity.
			ingestRange(t, c2, src, 2, 4)
			got := c2.Epoch()
			if got.Months != 4 {
				t.Fatalf("final epoch covers %d months, want 4", got.Months)
			}
			if !reflect.DeepEqual(got.Analysis, control) {
				t.Fatal("recovered run's analysis is not byte-identical to the uninterrupted run")
			}
			if err := c2.Close(); err != nil {
				t.Fatalf("clean close after recovery: %v", err)
			}
		})
	}
}

// TestCoreEpochConsistencyUnderIngest hammers Epoch() from reader goroutines
// while months fold in. Under -race this also proves readers never touch the
// fold goroutine's live state: sequence numbers are monotonic, the model
// count always matches the epoch's month count, and every detection id
// resolves inside the epoch's own vocab snapshot.
func TestCoreEpochConsistencyUnderIngest(t *testing.T) {
	src := genServeCorpus(t, 5)
	c, _, _ := newTestCore(t, t.TempDir())
	defer c.Close()
	waitReady(t, c)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := c.Epoch()
				if e == nil {
					continue
				}
				if e.Seq < lastSeq {
					t.Errorf("epoch sequence went backwards: %d after %d", e.Seq, lastSeq)
					return
				}
				lastSeq = e.Seq
				if e.Analysis == nil {
					continue
				}
				if len(e.Analysis.Models) != e.Months {
					t.Errorf("torn epoch: %d models for %d months", len(e.Analysis.Models), e.Months)
					return
				}
				for _, det := range e.Analysis.Prescriptions {
					if int(det.Disease) >= len(e.DiseaseCodes) || int(det.Medicine) >= len(e.MedicineCodes) {
						t.Error("detection references an id outside the epoch's vocab snapshot")
						return
					}
				}
			}
		}()
	}
	ingestRange(t, c, src, 0, 5)
	close(stop)
	wg.Wait()
}

func TestCoreShedsWhenQueueFull(t *testing.T) {
	src := genServeCorpus(t, 3)
	metrics := obs.NewRegistry()
	c, _, err := NewCore(CoreOptions{
		Dir: t.TempDir(), Trend: servingTrendOptions(), Metrics: metrics, QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitReady(t, c)

	// Slow every fold down without failing it, so the queue backs up
	// deterministically: Delay applies even to non-firing hits.
	faultpoint.Enable("serve/fold", faultpoint.Spec{
		Delay: 300 * time.Millisecond,
		Match: func(string) bool { return false },
	})
	defer faultpoint.Reset()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(1)
	go func() { defer wg.Done(); _, _, errs[0] = c.Ingest(context.Background(), monthSlice(t, src, 0), 0) }()
	// Wait until the first fold is inside the slow fault site.
	for deadline := time.Now().Add(10 * time.Second); faultpoint.Hits("serve/fold") == 0; {
		if time.Now().After(deadline) {
			t.Fatal("first ingest never reached the fold")
		}
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go func() { defer wg.Done(); _, _, errs[1] = c.Ingest(context.Background(), monthSlice(t, src, 1), 1) }()
	// Wait until the second task occupies the queue's single slot.
	for deadline := time.Now().Add(10 * time.Second); len(c.queue) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second ingest never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full, fold busy: the third ingest must shed immediately.
	_, _, err = c.Ingest(context.Background(), monthSlice(t, src, 2), 2)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third ingest returned %v, want ErrOverloaded", err)
	}
	if got := metrics.Counter("serve/shed_total").Value(); got != 1 {
		t.Fatalf("serve/shed_total = %d, want 1", got)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			t.Fatalf("queued ingest %d failed: %v", i, e)
		}
	}
	if c.Months() != 2 {
		t.Fatalf("months after shedding = %d, want 2", c.Months())
	}
}

func TestCoreReplayAndConflict(t *testing.T) {
	src := genServeCorpus(t, 4)
	c, _, _ := newTestCore(t, t.TempDir())
	defer c.Close()
	waitReady(t, c)
	ingestRange(t, c, src, 0, 2)
	before := c.Epoch()

	// Identical replay of a committed month: idempotent success, no new epoch.
	idx, seq, err := c.Ingest(context.Background(), monthSlice(t, src, 1), 1)
	if err != nil || idx != 1 {
		t.Fatalf("idempotent replay = (%d, %v), want month 1, nil", idx, err)
	}
	if seq != before.Seq {
		t.Fatalf("replay advanced the epoch to %d", seq)
	}

	// Same index, different records: conflict, also when the replay carries
	// a code or hospital the corpus has never seen.
	diseases, medicines, hospitals := c.ds.Diseases.Len(), c.ds.Medicines.Len(), len(c.ds.Hospitals)
	for _, replay := range []*mic.Dataset{monthSlice(t, src, 2), novelMonth(t, src, 1)} {
		if _, _, err := c.Ingest(context.Background(), replay, 1); !errors.Is(err, ErrMonthConflict) {
			t.Fatalf("divergent replay returned %v, want ErrMonthConflict", err)
		}
	}
	// A gap ahead of the fold position: conflict.
	if _, _, err := c.Ingest(context.Background(), monthSlice(t, src, 3), 5); !errors.Is(err, ErrMonthConflict) {
		t.Fatalf("gap assert returned %v, want ErrMonthConflict", err)
	}
	// More than one month per ingest is a caller bug.
	if _, _, err := c.Ingest(context.Background(), src, -1); err == nil {
		t.Fatal("multi-month ingest accepted")
	}
	if c.Months() != 2 || c.Epoch().Seq != before.Seq {
		t.Fatal("rejected ingests mutated the published state")
	}
	// Ingest has returned, so the idle fold goroutine leaves c.ds alone.
	if c.ds.Diseases.Len() != diseases || c.ds.Medicines.Len() != medicines || len(c.ds.Hospitals) != hospitals {
		t.Fatalf("rejected ingests grew the corpus: %d/%d/%d diseases/medicines/hospitals, want %d/%d/%d",
			c.ds.Diseases.Len(), c.ds.Medicines.Len(), len(c.ds.Hospitals), diseases, medicines, hospitals)
	}
}

// novelMonth is monthSlice(src, i) with a disease, a medicine and a
// hospital that no month of src has, its first record moved onto all three.
func novelMonth(t *testing.T, src *mic.Dataset, i int) *mic.Dataset {
	t.Helper()
	m := monthSlice(t, src, i)
	r := &m.Months[0].Records[0]
	r.Diseases[0].Disease = mic.DiseaseID(m.Diseases.Intern("Z99.NOVEL"))
	r.Medicines[0] = mic.MedicineID(m.Medicines.Intern("NOVEL-MED"))
	r.Hospital = m.AddHospital(mic.Hospital{Code: "H-NOVEL", City: "Nowhere", Beds: 10})
	return m
}

// TestCoreRejectedReplayLeavesCorpus: a conflicting replay or a failed fold
// that carries a new code or hospital must not reach the corpus. Core A
// folds months 0–1, rejects such a replay of month 1, fails such a fold of
// month 2 on an expired deadline, then folds 2–3; core B folds 0–3 only.
// After every fold both publish the same vocabularies and Analysis.
func TestCoreRejectedReplayLeavesCorpus(t *testing.T) {
	src := genServeCorpus(t, 4)
	a, _, _ := newTestCore(t, t.TempDir())
	defer a.Close()
	b, _, _ := newTestCore(t, t.TempDir())
	defer b.Close()
	waitReady(t, a)
	waitReady(t, b)
	for i := 0; i < 4; i++ {
		ingestRange(t, a, src, i, i+1)
		ingestRange(t, b, src, i, i+1)
		if i == 1 {
			if _, _, err := a.Ingest(context.Background(), novelMonth(t, src, 1), 1); !errors.Is(err, ErrMonthConflict) {
				t.Fatalf("divergent replay returned %v, want ErrMonthConflict", err)
			}
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			_, _, err := a.Ingest(ctx, novelMonth(t, src, 2), 2)
			cancel()
			if err == nil {
				t.Fatal("expired deadline did not fail the month-2 ingest")
			}
		}
		ea, eb := a.Epoch(), b.Epoch()
		if !reflect.DeepEqual(ea.DiseaseCodes, eb.DiseaseCodes) || !reflect.DeepEqual(ea.MedicineCodes, eb.MedicineCodes) {
			t.Fatalf("month %d: published codes differ after a rejected replay", i)
		}
		if !reflect.DeepEqual(ea.Analysis, eb.Analysis) {
			t.Fatalf("month %d: published Analysis differs after a rejected replay", i)
		}
	}
}

// TestRemapMonthAllocsFlatInRecords: remapping an ingested month carves its
// records' bags from two slabs, so a month ten times as long allocates no
// more often.
func TestRemapMonthAllocsFlatInRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	src := genServeCorpus(t, 1)
	one := monthSlice(t, src, 0)
	ten := monthSlice(t, src, 0)
	for k := 1; k < 10; k++ {
		ten.Months[0].Records = append(ten.Months[0].Records, one.Months[0].Records...)
	}
	c := &Core{ds: mic.NewDataset()}
	allocs := func(in *mic.Dataset) float64 {
		return testing.AllocsPerRun(10, func() { c.remapMonth(in, 0) })
	}
	a1, a10 := allocs(one), allocs(ten)
	t.Logf("remapMonth allocations: %v per call at %d records, %v at %d", a1, len(one.Months[0].Records), a10, len(ten.Months[0].Records))
	if a10 > a1 {
		t.Fatalf("remapMonth allocations grow with records: %v per call at 1x, %v at 10x", a1, a10)
	}
}

func TestCoreDeadlineUnwindsFold(t *testing.T) {
	src := genServeCorpus(t, 2)
	c, _, _ := newTestCore(t, t.TempDir())
	defer c.Close()
	waitReady(t, c)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := c.Ingest(ctx, monthSlice(t, src, 0), 0); err == nil {
		t.Fatal("expired deadline did not fail the ingest")
	}
	// The failed fold unwound completely: month 0 is still the next slot and
	// folds cleanly with a live context.
	ingestRange(t, c, src, 0, 2)
	e := c.Epoch()
	if e.Months != 2 {
		t.Fatalf("months = %d, want 2", e.Months)
	}
	if want := controlAnalysis(t, src, 2); !reflect.DeepEqual(e.Analysis, want) {
		t.Fatal("analysis after an unwound fold differs from the plain pipeline")
	}
}

func TestCoreRetriesTransientFold(t *testing.T) {
	src := genServeCorpus(t, 1)
	metrics := obs.NewRegistry()
	c, _, err := NewCore(CoreOptions{
		Dir: t.TempDir(), Trend: servingTrendOptions(), Metrics: metrics,
		Retry: RetryPolicy{Attempts: 3, Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitReady(t, c)

	// First two attempts hit the injected fault, the third succeeds.
	faultpoint.Enable("serve/fold", faultpoint.Spec{Count: 2})
	defer faultpoint.Reset()
	if _, _, err := c.Ingest(context.Background(), monthSlice(t, src, 0), 0); err != nil {
		t.Fatalf("ingest did not survive transient faults: %v", err)
	}
	if got := metrics.Counter("serve/retries").Value(); got != 2 {
		t.Fatalf("serve/retries = %d, want 2", got)
	}
	if c.Months() != 1 {
		t.Fatalf("months = %d, want 1", c.Months())
	}
}

func TestCoreRetryBudgetExhaustedUnwinds(t *testing.T) {
	src := genServeCorpus(t, 1)
	c, _, err := NewCore(CoreOptions{
		Dir: t.TempDir(), Trend: servingTrendOptions(), Metrics: obs.NewRegistry(),
		Retry: RetryPolicy{Attempts: 2, Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitReady(t, c)

	faultpoint.Enable("serve/fold", faultpoint.Spec{}) // every attempt fails
	_, _, ierr := c.Ingest(context.Background(), monthSlice(t, src, 0), 0)
	faultpoint.Reset()
	if ierr == nil || !strings.Contains(ierr.Error(), "giving up after 2 attempts") {
		t.Fatalf("exhausted ingest returned %v", ierr)
	}
	if c.Months() != 0 {
		t.Fatal("failed ingest left months behind")
	}
	// The unwind is complete: the same month folds cleanly afterwards.
	if _, _, err := c.Ingest(context.Background(), monthSlice(t, src, 0), 0); err != nil {
		t.Fatalf("ingest after exhausted retries: %v", err)
	}
}

// TestCoreRecoveryAnalysisFailureStaysUnready: when the startup re-analysis
// fails, the core publishes nothing (readyz stays red) but remains usable —
// the next successful ingest analyzes from scratch and publishes.
func TestCoreRecoveryAnalysisFailureStaysUnready(t *testing.T) {
	src := genServeCorpus(t, 3)
	dir := t.TempDir()
	c, _, _ := newTestCore(t, dir)
	waitReady(t, c)
	ingestRange(t, c, src, 0, 2)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Fail month 0's reload so recovery refits it, then fail the refit's
	// checkpoint commit: the whole recovery analysis errors terminally.
	faultpoint.Enable("trend/ckpt-load", faultpoint.Spec{
		Err: errors.New("disk hiccup"), Match: func(d string) bool { return d == "month-0" },
	})
	faultpoint.Enable("trend/ckpt-save", faultpoint.Spec{
		Err: errors.New("disk full"), Match: func(d string) bool { return d == "month-0" },
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
			t.Fatal("recovery analysis failure never recorded")
		}
		time.Sleep(2 * time.Millisecond)
	}
	faultpoint.Reset()
	if c2.Ready() {
		t.Fatal("core went ready despite a failed recovery analysis")
	}
	// The corpus is intact; the next ingest re-analyzes and publishes.
	ingestRange(t, c2, src, 2, 3)
	e := c2.Epoch()
	if e == nil || e.Months != 3 {
		t.Fatalf("epoch after post-recovery ingest = %+v, want 3 months", e)
	}
	if want := controlAnalysis(t, src, 3); !reflect.DeepEqual(e.Analysis, want) {
		t.Fatal("post-recovery analysis differs from the plain pipeline")
	}
}

// TestCoreRecoveryPanicPoisons: a panic during the startup analysis must not
// kill the process (the WAL handle is open) — it poisons the core, which
// stays unready and refuses work until restarted.
func TestCoreRecoveryPanicPoisons(t *testing.T) {
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
	deadline := time.Now().Add(30 * time.Second)
	for metrics.Counter("serve/recovery_analysis_failures").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("recovery panic never recorded")
		}
		time.Sleep(2 * time.Millisecond)
	}
	faultpoint.Reset()
	if c2.Ready() {
		t.Fatal("core went ready after a recovery panic")
	}
	if _, _, err := c2.Ingest(context.Background(), monthSlice(t, src, 0), 0); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("ingest on a poisoned core returned %v, want ErrPoisoned", err)
	}
	if err := c2.Close(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("poisoned Close returned %v, want ErrPoisoned", err)
	}

	// The restart after the restart: everything is still there.
	c3, rep, _ := newTestCore(t, dir)
	defer c3.Close()
	if !reflect.DeepEqual(rep.Months, []int{0, 1}) {
		t.Fatalf("months = %v, want [0 1]", rep.Months)
	}
	e := waitReady(t, c3)
	if e.Months != 2 {
		t.Fatalf("epoch covers %d months, want 2", e.Months)
	}
}

func TestCoreCloseIsIdempotentAndRefusesIngest(t *testing.T) {
	src := genServeCorpus(t, 1)
	c, _, _ := newTestCore(t, t.TempDir())
	waitReady(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := c.Ingest(context.Background(), monthSlice(t, src, 0), 0); !errors.Is(err, ErrClosing) {
		t.Fatalf("ingest after Close returned %v, want ErrClosing", err)
	}
}
