package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"mictrend/internal/faultpoint"
	"mictrend/internal/mic"
	"mictrend/internal/obs"
	"mictrend/internal/trend"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrOverloaded means the bounded ingest queue is full; the caller should
	// back off and retry (429 + Retry-After).
	ErrOverloaded = errors.New("serve: ingest queue full")
	// ErrClosing means the core is draining for shutdown and accepts no new
	// work (503).
	ErrClosing = errors.New("serve: shutting down")
	// ErrMonthConflict means the request named a month index that does not
	// match the fold position — a gap, or a replay whose data differs from
	// what that month already committed (409).
	ErrMonthConflict = errors.New("serve: month conflict")
	// ErrPoisoned means a fold crashed (panicked) mid-commit: the store
	// handle can no longer be trusted (a torn WAL frame may sit under the
	// append position), so the core refuses all further work. Restart the
	// process — recovery rolls the store back to its last consistent prefix.
	ErrPoisoned = errors.New("serve: core poisoned by a crashed fold; restart to recover")
)

// Epoch is one immutable published snapshot: the Analysis over the first
// Months months of the corpus, visible to every reader until the next month
// finishes folding in and the core swaps the pointer. Readers never see a
// partially folded month — they hold whichever Epoch was current when they
// asked, fields and all.
type Epoch struct {
	// Seq increments with every publication; 1 is the recovery (or empty)
	// epoch published at startup.
	Seq int64
	// Months is how many months the Analysis covers (0 for the empty epoch).
	Months int
	// Analysis is the complete pipeline output; nil only in the empty epoch
	// of a store with no committed months.
	Analysis *trend.Analysis
	// DiseaseCodes and MedicineCodes snapshot the vocabularies at publish
	// time, in id order, so readers can render codes without touching the
	// fold goroutine's live (growing) vocab.
	DiseaseCodes  []string
	MedicineCodes []string
}

// CoreOptions configures NewCore.
type CoreOptions struct {
	// Dir is the checkpoint directory (required).
	Dir string
	// Trend configures the analysis pipeline. Its Checkpoint field is
	// overwritten with the core's store; Metrics defaults to the core's
	// registry when unset.
	Trend trend.Options
	// QueueDepth bounds the ingest queue; ingests beyond it are shed with
	// ErrOverloaded. Default 8.
	QueueDepth int
	// Retry schedules re-attempts of transiently failed folds. Zero value
	// means DefaultRetryPolicy.
	Retry RetryPolicy
	// Metrics receives the serving counters (serve/recoveries, serve/retries,
	// serve/shed_total), the serve/epoch and serve/queue_depth gauges, and the
	// serve/lineage_transitions{stage} vector; nil allocates a private
	// registry.
	Metrics *obs.Registry
	// Log receives the fold loop's structured records — ingest sheds, retry
	// attempts, fold commits and failures, recovery outcome, poisonings. Nil
	// disables logging at zero cost (the obs.Logger nil contract).
	Log *obs.Logger
	// Trace receives the lineage spans: each ingested month's queue-admit,
	// fold, checkpoint-write, WAL-commit, and epoch-publish stages on
	// obs.LaneServe, correlated by a per-month flow id. Nil disables span
	// emission.
	Trace obs.SpanObserver
	// LineageDepth bounds how many months /v1/status retains lineage for
	// (oldest pruned first). Default 64.
	LineageDepth int
}

// Core is the crash-safe incremental serving engine: a single fold goroutine
// owns the dataset and drains a bounded queue of ingested months, running
// the checkpointed pipeline once per month and publishing each completed
// Analysis as a new Epoch. Concurrent readers use Epoch()'s copy-on-write
// snapshot; ingest is synchronous (the caller waits for its month's fold,
// bounded by its context's deadline).
type Core struct {
	store   *Store
	report  *RecoveryReport
	opts    CoreOptions
	metrics *obs.Registry
	log     *obs.Logger
	lin     *lineageTracker

	lastFoldNS  atomic.Int64 // wall-clock cost of the last completed fold
	publishedAt atomic.Int64 // unix nanos of the last epoch swap

	epoch    atomic.Pointer[Epoch]
	queue    chan *foldTask
	done     chan struct{}
	poisoned atomic.Bool

	mu      sync.Mutex
	closing bool

	ds *mic.Dataset // owned by the fold goroutine after NewCore returns
	// analyzer keeps each folded month's filtered records, fingerprint and
	// pair sums across folds; like ds it belongs to the fold goroutine.
	analyzer *trend.Analyzer
}

type foldTask struct {
	month    *mic.Dataset // one-month dataset to merge and fold
	want     int          // asserted month index, -1 for "next"
	ctx      context.Context
	reply    chan foldResult
	admitted time.Time // when the task entered the queue
	reqID    string    // correlated request id, "" outside Instrument
}

type foldResult struct {
	month int
	epoch int64
	err   error
}

// NewCore opens (and repairs) the store under opts.Dir, rebuilds the corpus
// from the committed contiguous prefix, starts the fold loop, and schedules
// the recovery analysis as the loop's first unit of work. It returns before
// that analysis finishes; Ready() flips once the first epoch publishes, and
// the returned RecoveryReport says what restoration found.
func NewCore(opts CoreOptions) (*Core, *RecoveryReport, error) {
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 8
	}
	if opts.Retry.Attempts == 0 {
		opts.Retry = DefaultRetryPolicy()
	}
	store, rep, err := Open(opts.Dir, opts.Metrics)
	if err != nil {
		return nil, nil, err
	}
	ds, unservable := store.RebuildDataset()
	for _, u := range unservable {
		rep.Dropped = append(rep.Dropped, DroppedMonth{Month: u.Month, Reason: "unservable: " + u.Reason})
	}
	opts.Trend.Checkpoint = store
	if opts.Trend.Metrics == nil {
		opts.Trend.Metrics = opts.Metrics
	}
	c := &Core{
		store:    store,
		report:   rep,
		opts:     opts,
		metrics:  opts.Metrics,
		log:      opts.Log,
		lin:      newLineageTracker(opts.Trace, opts.Metrics, opts.LineageDepth),
		queue:    make(chan *foldTask, opts.QueueDepth),
		done:     make(chan struct{}),
		ds:       ds,
		analyzer: trend.NewAnalyzer(opts.Trend),
	}
	store.SetCommitObserver(c.lin.commitObserver)
	go c.foldLoop()
	return c, rep, nil
}

// Epoch returns the current published snapshot (nil until the recovery
// analysis publishes the first one).
func (c *Core) Epoch() *Epoch { return c.epoch.Load() }

// Ready reports whether the first epoch has been published — the /readyz
// condition.
func (c *Core) Ready() bool { return c.epoch.Load() != nil }

// Report returns the recovery report from startup.
func (c *Core) Report() *RecoveryReport { return c.report }

// Months returns the number of folded months in the current epoch (0 before
// the first publication).
func (c *Core) Months() int {
	if e := c.epoch.Load(); e != nil {
		return e.Months
	}
	return 0
}

// Ingest merges one month of records — a single-month dataset, typically
// parsed from the JSONL codec — into the corpus, folds it through the
// checkpointed pipeline, and returns the month index it landed at along
// with the epoch that now includes it. want ≥ 0 asserts the month index:
// a mismatched assertion fails with ErrMonthConflict, except a replay of an
// already-committed month with identical records, which succeeds idempotently
// (at-least-once ingest). The call blocks until the fold completes; ctx's
// deadline bounds both the queue wait and the fold itself. When the queue is
// full the ingest is shed immediately with ErrOverloaded.
func (c *Core) Ingest(ctx context.Context, month *mic.Dataset, want int) (int, int64, error) {
	if month.T() != 1 {
		return 0, 0, fmt.Errorf("serve: ingest needs exactly one month, got %d", month.T())
	}
	if c.poisoned.Load() {
		return 0, 0, ErrPoisoned
	}
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		return 0, 0, ErrClosing
	}
	task := &foldTask{
		month: month, want: want, ctx: ctx, reply: make(chan foldResult, 1),
		admitted: time.Now(), reqID: RequestID(ctx),
	}
	select {
	case c.queue <- task:
		c.mu.Unlock()
		c.metrics.Gauge("serve/queue_depth").Set(int64(len(c.queue)))
		if want >= 0 {
			c.lin.admitted(want, task.reqID, task.admitted)
		}
	default:
		c.mu.Unlock()
		c.metrics.Counter("serve/shed_total").Inc()
		if c.log.Enabled() {
			c.log.Warn("ingest shed: queue full",
				slog.String("request_id", task.reqID), slog.Int("want", want))
		}
		return 0, 0, ErrOverloaded
	}
	select {
	case res := <-task.reply:
		return res.month, res.epoch, res.err
	case <-ctx.Done():
		// The fold may still complete and publish; the caller just stopped
		// waiting. At-least-once semantics let it re-assert the month later.
		return 0, 0, ctx.Err()
	}
}

// Close drains gracefully: no new ingests are accepted, every task already
// queued folds to completion, a final clean-shutdown marker lands in the
// WAL, and the store closes. Safe to call more than once.
func (c *Core) Close() error {
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		<-c.done
		return nil
	}
	c.closing = true
	c.mu.Unlock()
	close(c.queue)
	<-c.done
	var err error
	if c.poisoned.Load() {
		// No clean-shutdown marker: a torn frame may sit under the WAL's
		// append position, and writing after it would corrupt the log. The
		// next Open truncates and recovers instead.
		err = ErrPoisoned
	} else {
		var seq int64
		if e := c.epoch.Load(); e != nil {
			seq = e.Seq
		}
		err = c.store.MarkCleanShutdown(seq)
	}
	if cerr := c.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// foldLoop is the single goroutine that owns c.ds: it publishes the recovery
// epoch, then folds queued months one at a time until Close drains it.
func (c *Core) foldLoop() {
	defer close(c.done)
	c.recoverEpoch()
	for task := range c.queue {
		c.metrics.Gauge("serve/queue_depth").Set(int64(len(c.queue)))
		task.reply <- c.safeFold(task)
	}
}

// recoverEpoch runs the startup recovery analysis with the same panic
// containment as safeFold: a crash while re-analyzing the restored corpus
// poisons the core (readyz stays red, every ingest refused) instead of
// killing the process with the WAL handle open.
func (c *Core) recoverEpoch() {
	defer func() {
		if r := recover(); r != nil {
			c.poisoned.Store(true)
			c.metrics.Counter("serve/recovery_analysis_failures").Inc()
			if c.log.Enabled() {
				c.log.Error("recovery analysis panicked; core poisoned", slog.Any("panic", r))
			}
		}
	}()
	c.publishRecoveryEpoch()
}

// safeFold contains a fold panic: the real process would crash here (and
// recovery would repair the store at the next start); in-process we poison
// the core instead, which refuses all further work and skips the
// clean-shutdown marker, leaving the directory exactly as a SIGKILL would.
// This is also what makes every injected crash site testable without
// spawning processes.
func (c *Core) safeFold(task *foldTask) (res foldResult) {
	if c.poisoned.Load() {
		return foldResult{err: ErrPoisoned}
	}
	defer func() {
		if r := recover(); r != nil {
			c.poisoned.Store(true)
			if c.log.Enabled() {
				c.log.Error("fold panicked; core poisoned", slog.Any("panic", r))
			}
			res = foldResult{err: fmt.Errorf("%w: %v", ErrPoisoned, r)}
		}
	}()
	return c.fold(task)
}

// publishRecoveryEpoch analyzes the recovered corpus (reusing every
// committed model via the checkpointer) and publishes epoch 1. An empty
// store publishes an empty epoch immediately; a recovered corpus whose
// analysis fails terminally leaves the core unready — the operator sees
// /readyz stay red and the failure in the log.
func (c *Core) publishRecoveryEpoch() {
	if c.ds.T() == 0 {
		c.publish(&Epoch{Months: 0})
		return
	}
	analysis, err := c.analyze(context.Background())
	if err != nil {
		// Keep serving nothing rather than something wrong. The next
		// successful ingest will re-run the full analysis and publish.
		c.metrics.Counter("serve/recovery_analysis_failures").Inc()
		if c.log.Enabled() {
			c.log.Error("recovery analysis failed; staying unready",
				slog.String("err", err.Error()))
		}
		return
	}
	c.publish(&Epoch{Months: c.ds.T(), Analysis: analysis})
	if c.log.Enabled() {
		c.log.Info("recovery epoch published", slog.Int("months", c.ds.T()))
	}
}

func (c *Core) publish(e *Epoch) {
	var seq int64 = 1
	if cur := c.epoch.Load(); cur != nil {
		seq = cur.Seq + 1
	}
	e.Seq = seq
	e.DiseaseCodes = c.ds.Diseases.Codes()
	e.MedicineCodes = c.ds.Medicines.Codes()
	c.epoch.Store(e)
	c.publishedAt.Store(time.Now().UnixNano())
	c.metrics.Gauge("serve/epoch").Set(seq)
	c.metrics.Gauge("serve/months").Set(int64(e.Months))
}

// fold merges one ingested month into the corpus and re-runs the
// checkpointed analysis. Every month already committed is reloaded from the
// store, and the analyzer keeps each committed month's filtered records,
// fingerprint and pair sums, so the incremental cost is one month's filter,
// fit and reproduction plus detection over the whole corpus. On terminal
// failure the merge is unwound and the previous epoch remains current — a
// failed fold is invisible to readers.
func (c *Core) fold(task *foldTask) foldResult {
	next := c.ds.T()
	if task.want >= 0 && task.want != next {
		if task.want < next {
			return c.replay(task)
		}
		return foldResult{err: fmt.Errorf("%w: asserted month %d, next is %d", ErrMonthConflict, task.want, next)}
	}

	foldStart := time.Now()
	c.lin.foldStart(next, task.reqID, task.admitted)
	nd, nm, nh := c.ds.Diseases.Len(), c.ds.Medicines.Len(), len(c.ds.Hospitals)
	monthly := c.mergeMonth(task.month, next)
	c.store.StageMonth(next, monthly, c.ds.Diseases.Codes(), c.ds.Medicines.Codes(), c.ds.Hospitals)

	// The request's deadline — not its cancellation — bounds the fold: a
	// client that gives up must not abort a fit that is about to commit
	// durable state (the reply just goes unread).
	ctx := context.Background()
	var cancel context.CancelFunc = func() {}
	if dl, ok := task.ctx.Deadline(); ok {
		ctx, cancel = context.WithDeadline(ctx, dl)
	}
	defer cancel()

	var analysis *trend.Analysis
	_, err := c.opts.Retry.Do(ctx, func() error {
		if err := faultpoint.Inject("serve/fold", monthFile(next)); err != nil {
			return MarkTransient(err) // injected infra faults model retryable I/O
		}
		var aerr error
		analysis, aerr = c.analyze(ctx)
		return aerr
	}, func(attempt int, rerr error) {
		c.metrics.Counter("serve/retries").Inc()
		if c.log.Enabled() {
			c.log.Warn("fold retrying", slog.Int("month", next),
				slog.Int("attempt", attempt), slog.String("err", rerr.Error()))
		}
	})
	if err != nil {
		// Unwind: drop the appended month and the codes and hospitals it
		// interned, so no later fold publishes or persists them, and the
		// staged records. The hospital table is capped so that the next
		// append copies it rather than write into an array a month still holds.
		c.ds.Months = c.ds.Months[:next]
		c.ds.Diseases.Truncate(nd)
		c.ds.Medicines.Truncate(nm)
		c.ds.Hospitals = c.ds.Hospitals[:nh:nh]
		c.store.Unstage(next)
		c.lin.failed(next, err)
		if c.log.Enabled() {
			c.log.Error("fold failed; month unwound", slog.Int("month", next),
				slog.String("request_id", task.reqID), slog.String("err", err.Error()))
		}
		return foldResult{err: err}
	}
	e := &Epoch{Months: c.ds.T(), Analysis: analysis}
	c.publish(e)
	elapsed := time.Since(foldStart)
	c.lastFoldNS.Store(int64(elapsed))
	c.metrics.Gauge("serve/last_fold_ms").Set(elapsed.Milliseconds())
	c.lin.published(next, e.Seq)
	if c.log.Enabled() {
		c.log.Info("fold committed", slog.Int("month", next),
			slog.Int64("epoch", e.Seq), slog.String("request_id", task.reqID),
			slog.Duration("elapsed", elapsed))
	}
	return foldResult{month: next, epoch: e.Seq}
}

// replay handles an asserted month that is already committed: identical
// records succeed idempotently with the current epoch, different records
// conflict. A code or hospital the corpus lacks already differs from the
// committed month, so only a month whose codes and hospitals are all known
// is remapped and compared, and a rejected replay adds nothing to the
// corpus.
func (c *Core) replay(task *foldTask) foldResult {
	if !c.knows(task.month) || !monthliesEqual(c.ds.Months[task.want], c.remapMonth(task.month, task.want)) {
		return foldResult{err: fmt.Errorf("%w: month %d already committed with different records", ErrMonthConflict, task.want)}
	}
	e := c.epoch.Load()
	var seq int64
	if e != nil {
		seq = e.Seq
	}
	return foldResult{month: task.want, epoch: seq}
}

// mergeMonth interns the incoming month's vocabulary and hospitals into the
// corpus, remaps its records, and appends it as month index at.
func (c *Core) mergeMonth(in *mic.Dataset, at int) *mic.Monthly {
	monthly := c.remapMonth(in, at)
	c.ds.Months = append(c.ds.Months, monthly)
	return monthly
}

// knows reports whether the corpus already holds every disease and
// medicine code and every hospital of in, so that remapping in adds
// nothing to it.
func (c *Core) knows(in *mic.Dataset) bool {
	known := func(from, into *mic.Vocab) bool {
		for id := 0; id < from.Len(); id++ {
			if _, ok := into.Lookup(from.Code(int32(id))); !ok {
				return false
			}
		}
		return true
	}
	if !known(in.Diseases, c.ds.Diseases) || !known(in.Medicines, c.ds.Medicines) {
		return false
	}
	have := make(map[string]bool, len(c.ds.Hospitals))
	for _, h := range c.ds.Hospitals {
		have[h.Code] = true
	}
	for _, h := range in.Hospitals {
		if !have[h.Code] {
			return false
		}
	}
	return true
}

// remapMonth translates the single month of in into the serving corpus's id
// space, interning any new disease/medicine codes and appending any new
// hospitals (matched by code). The records' bags are carved from one
// disease slab and one medicine slab, each bag capped at its own length so
// an append to it cannot write into its neighbour.
func (c *Core) remapMonth(in *mic.Dataset, at int) *mic.Monthly {
	dmap := make([]mic.DiseaseID, in.Diseases.Len())
	for i := range dmap {
		dmap[i] = mic.DiseaseID(c.ds.Diseases.Intern(in.Diseases.Code(int32(i))))
	}
	mmap := make([]mic.MedicineID, in.Medicines.Len())
	for i := range mmap {
		mmap[i] = mic.MedicineID(c.ds.Medicines.Intern(in.Medicines.Code(int32(i))))
	}
	hmap := make([]mic.HospitalID, len(in.Hospitals))
	byCode := make(map[string]mic.HospitalID, len(c.ds.Hospitals))
	for i, h := range c.ds.Hospitals {
		byCode[h.Code] = mic.HospitalID(i)
	}
	for i, h := range in.Hospitals {
		id, ok := byCode[h.Code]
		if !ok {
			id = c.ds.AddHospital(h)
			byCode[h.Code] = id
		}
		hmap[i] = id
	}
	src := in.Months[0]
	var nd, nm int
	for i := range src.Records {
		nd += len(src.Records[i].Diseases)
		nm += len(src.Records[i].Medicines)
	}
	dslab, mslab := make([]mic.DiseaseCount, nd), make([]mic.MedicineID, nm)
	out := &mic.Monthly{Month: at, Records: make([]mic.Record, len(src.Records))}
	for i := range src.Records {
		r, nr := &src.Records[i], &out.Records[i]
		nr.Patient = r.Patient
		if int(r.Hospital) < len(hmap) {
			nr.Hospital = hmap[r.Hospital]
		}
		nr.Diseases, dslab = dslab[:len(r.Diseases):len(r.Diseases)], dslab[len(r.Diseases):]
		for j, dc := range r.Diseases {
			nr.Diseases[j] = mic.DiseaseCount{Disease: dmap[dc.Disease], Count: dc.Count}
		}
		nr.Medicines, mslab = mslab[:len(r.Medicines):len(r.Medicines)], mslab[len(r.Medicines):]
		for j, m := range r.Medicines {
			nr.Medicines[j] = mmap[m]
		}
	}
	return out
}

// analyze runs the checkpointed pipeline over the whole corpus, wrapping
// infrastructure errors (checkpoint commits, injected faults) as transient
// so the retry policy covers them; pipeline-semantic errors (empty corpus,
// context expiry) stay terminal.
func (c *Core) analyze(ctx context.Context) (*trend.Analysis, error) {
	analysis, err := c.analyzer.Analyze(ctx, c.ds)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, mic.ErrEmptyDataset) {
			return nil, err
		}
		return nil, MarkTransient(err)
	}
	return analysis, nil
}

func monthliesEqual(a, b *mic.Monthly) bool {
	if len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		ra, rb := &a.Records[i], &b.Records[i]
		if ra.Hospital != rb.Hospital || ra.Patient != rb.Patient ||
			len(ra.Diseases) != len(rb.Diseases) || len(ra.Medicines) != len(rb.Medicines) {
			return false
		}
		for j := range ra.Diseases {
			if ra.Diseases[j] != rb.Diseases[j] {
				return false
			}
		}
		for j := range ra.Medicines {
			if ra.Medicines[j] != rb.Medicines[j] {
				return false
			}
		}
	}
	return true
}
