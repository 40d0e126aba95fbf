package trend

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"mictrend/internal/changepoint"
	"mictrend/internal/faultpoint"
	"mictrend/internal/obs"
	"mictrend/internal/ssm"
)

// scanJob is one series to scan: a pipeline detection job, a hierarchy
// aggregate, or a drill-down child.
type scanJob struct {
	key    SeriesKey
	series []float64
}

// scanStage names what one scan stage reports: its observer events and
// per-series spans, its metrics family, and how a failed scan is recorded.
type scanStage struct {
	// name is the SeriesDone event stage; per-series spans are name+"/series".
	name string
	// family prefixes the metrics: family+"/series", family+"/fits" and the
	// timer "time/"+family+"/series".
	family string
	// cat is the per-series span category.
	cat string
	// failure tags a failed scan's Failure and its span's "stage=" detail.
	failure FailureStage
	// site is the fault-injection point, matched on the series key.
	site string
	// costs adds the exact scans' family+"/candidates" and
	// family+"/warm_refits" counters: Algorithm 1's ScanEvaluations(n) per
	// series, and the prefix scan's fits in excess of it (anchors, probes,
	// contenders and refits beyond the serial scan's count; 0 when it spent
	// fewer).
	costs bool
}

// The pipeline's three scan stages: Analyze's leaf detection, and Surveil's
// aggregate scans and drill-down scans.
var (
	detectStage  = scanStage{name: "detect", family: "scan", cat: "detect", failure: StageDetect, site: "trend/detect", costs: true}
	surveilStage = scanStage{name: "surveil", family: "surveil", cat: "surveil", failure: StageSurveil, site: "trend/surveil"}
	drillStage   = scanStage{name: "surveil-drill", family: "surveil-drill", cat: "surveil", failure: StageSurveil, site: "trend/surveil"}
)

// scanOutcome is one job's finished (or cancelled) scan as scanAll collects
// it.
type scanOutcome struct {
	i         int
	res       changepoint.Result
	fail      *Failure
	cancelled bool
	stats     *ssm.FitStats
	prov      *changepoint.Provenance
	// memo is the representative's key when the result was copied from the
	// scan memo instead of scanned.
	memo  string
	began time.Time
	dur   time.Duration
}

// scanAll runs change point scans over jobs with a two-level worker budget:
// a shared pool of Options.Workers tokens admits series (level one), and
// each admitted exact scan opportunistically claims idle tokens for its
// contender fits (level two, see workerBudget). A wide batch behaves like a
// flat pool; a narrow batch or a draining tail moves the idle tokens into
// intra-series scan parallelism. One dispatcher admits the jobs in order.
//
// Each distinct series is scanned once (see scanMemo). Only the jobs that
// represent their series in memo — the lowest job index holding it, unless
// memo already holds it from a seed or an earlier stage — go to the pool.
// Every other job then copies its representative's successful scan after
// its own fault-point check, as soon as that scan is in, or is scanned
// itself once the pool drains when that scan failed, panicked or was
// cancelled. Results and every logical count, Fits included, are those of
// scanning each job.
//
// The pool is fault-tolerant and cancellable: a worker panic or a failed
// search is confined to its series (recorded as a Failure), and cancelling
// ctx stops dispatch immediately — in-flight searches abort within one model
// fit — returning the scans completed so far with ctx's error. Results,
// ok flags and provenance are assembled by job index, and per-series spans
// and events are delivered in job order through the sink's batch, so the
// outcome is byte-identical for any Workers/ScanWorkers split and, for the
// surviving series, whether or not other series failed. provs (Explain
// only) lists one entry per job that finished or failed, in job order;
// failed jobs keep their partial ladder alongside the failure.
func scanAll(ctx context.Context, st scanStage, jobs []scanJob, memo *scanMemo, opts Options, ins *pipelineInstruments) (results []changepoint.Result, ok []bool, failures []Failure, provs []SeriesProvenance, totalFits int, err error) {
	_, trace := sinkOf(ins).Callbacks()
	// Group the jobs by content: entry[i] is job i's memo entry, owner[i]
	// reports whether job i is the one that scans it, and dups[e] lists in
	// job order the jobs that repeat the series of an entry added here.
	base := len(memo.entries)
	entry := make([]int, len(jobs))
	owner := make([]bool, len(jobs))
	dups := make(map[int][]int)
	for i, job := range jobs {
		entry[i], owner[i] = memo.claim(job.key, job.series)
		if !owner[i] && entry[i] >= base {
			dups[entry[i]] = append(dups[entry[i]], i)
		}
	}
	// reuse resolves duplicate job i from its representative's successful
	// scan e. A cancel seen during its fault check cancels it, as one seen
	// during a scan cancels that scan.
	reuse := func(i int, e memoEntry) scanOutcome {
		o := scanOutcome{i: i, memo: e.key.String()}
		if ctx.Err() != nil {
			o.cancelled = true
			return o
		}
		o.began = time.Now()
		o.res, o.fail, o.prov = reuseScan(st, jobs[i], e, opts.Explain)
		o.dur = time.Since(o.began)
		o.cancelled = o.fail == nil && ctx.Err() != nil
		return o
	}

	budget := newWorkerBudget(opts.Workers)
	// dispatch scans the listed jobs on the pool in order, and closes the
	// returned channel once every admitted scan reported. A representative
	// that succeeds enters its scan in memo and resolves its duplicates
	// before it returns its worker token, so they report right after it and
	// a one-worker run stays strictly in order.
	dispatch := func(list []int) <-chan scanOutcome {
		out := make(chan scanOutcome)
		run := func(i int, wg *sync.WaitGroup) {
			defer wg.Done()
			defer budget.release(1)
			if ctx.Err() != nil {
				out <- scanOutcome{i: i, cancelled: true}
				return
			}
			o := scanOutcome{i: i}
			if ins != nil {
				if ins.metrics != nil {
					o.stats = &ssm.FitStats{}
				}
				o.began = time.Now()
			}
			o.res, o.fail, o.cancelled, o.prov = runScan(ctx, st, jobs[i], opts, budget, o.stats, trace)
			if ins != nil {
				o.dur = time.Since(o.began)
			}
			out <- o
			if owner[i] && o.fail == nil && !o.cancelled {
				memo.done(entry[i], o.res, o.prov)
				for _, j := range dups[entry[i]] {
					out <- reuse(j, memo.entries[entry[i]])
				}
			}
		}
		go func() {
			var wg sync.WaitGroup
			defer func() {
				wg.Wait()
				close(out)
			}()
			for _, i := range list {
				if budget.acquire(ctx) != nil {
					return
				}
				wg.Add(1)
				go run(i, &wg)
			}
		}()
		return out
	}

	var reps []int
	for i := range jobs {
		if owner[i] {
			reps = append(reps, i)
		}
	}

	results = make([]changepoint.Result, len(jobs))
	ok = make([]bool, len(jobs))
	var scanProvs []*changepoint.Provenance
	var failAt []*Failure
	if opts.Explain {
		scanProvs = make([]*changepoint.Provenance, len(jobs))
		failAt = make([]*Failure, len(jobs))
	}
	units := sinkOf(ins).Batch(len(jobs))
	hits := 0
	// rescan lists the duplicates whose representative failed, panicked or
	// was cancelled; they are scanned themselves once the pool drains.
	var rescan []int
	collect := func(o scanOutcome) {
		switch {
		case o.cancelled:
		case o.fail != nil:
			failures = append(failures, *o.fail)
		default:
			results[o.i] = o.res
			ok[o.i] = true
			totalFits += o.res.Fits
			if o.memo != "" {
				hits++
			}
		}
		if owner[o.i] && !ok[o.i] {
			rescan = append(rescan, dups[entry[o.i]]...)
		}
		if opts.Explain && !o.cancelled {
			scanProvs[o.i] = o.prov
			failAt[o.i] = o.fail
		}
		if o.cancelled {
			units.Done(o.i, obs.SpanEvent{})
			return
		}
		ins.scanMetrics(st, jobs[o.i], o)
		if units != nil {
			units.Done(o.i, seriesSpan(st, jobs[o.i].key, o))
		}
	}
	// Duplicates of a seeded or earlier stage's entry are resolved up front.
	for i := range jobs {
		if owner[i] || entry[i] >= base {
			continue
		}
		if e := memo.entries[entry[i]]; e.ok {
			collect(reuse(i, e))
		} else {
			rescan = append(rescan, i)
		}
	}
	for o := range dispatch(reps) {
		collect(o)
	}
	slices.Sort(rescan)
	if len(rescan) > 0 {
		for o := range dispatch(rescan) {
			collect(o)
		}
	}
	if ins != nil && ins.metrics != nil {
		ins.metrics.Counter(st.family + "/memo_hits").Add(int64(hits))
	}
	if opts.Explain {
		for i, job := range jobs {
			f := failAt[i]
			if !ok[i] && f == nil {
				continue // cancelled
			}
			sp := SeriesProvenance{
				Kind: job.key.Kind.String(), Disease: job.key.Disease, Medicine: job.key.Medicine,
				Key: job.key.String(), Scan: scanProvs[i],
			}
			if f != nil {
				sp.Failure = f.Err
				sp.FailureStage = f.Stage.String()
			}
			provs = append(provs, sp)
		}
	}
	return results, ok, failures, provs, totalFits, ctx.Err()
}

// seriesSpan is one finished scan's per-series span, from which the sink
// derives its SeriesDone event. A memo hit keeps its span; its detail names
// the representative it copied.
func seriesSpan(st scanStage, key SeriesKey, o scanOutcome) obs.SpanEvent {
	sp := obs.SpanEvent{Cat: st.cat, Name: st.name + "/series", TID: obs.LaneDetect,
		Start: o.began, Duration: o.dur, Month: -1, Series: key.String()}
	switch {
	case o.fail != nil:
		// Degraded series: the span carries the failure stage and message.
		sp.Err = o.fail.Err
		sp.Detail = "stage=" + st.failure.String()
	case o.res.Detected():
		sp.Detail = "cp=" + strconv.Itoa(o.res.ChangePoint)
	default:
		sp.Detail = "cp=none"
	}
	if o.fail == nil && o.memo != "" {
		sp.Detail += " memo=" + o.memo
	}
	return sp
}

// scanMetrics merges one finished scan into the registry. The merges are
// exact integer adds, so the deterministic snapshot does not depend on the
// order scans finish in. A memo hit keeps its logical counts; it adds no fit
// statistics, since it fitted nothing.
func (ins *pipelineInstruments) scanMetrics(st scanStage, job scanJob, o scanOutcome) {
	if ins == nil || ins.metrics == nil {
		return
	}
	m := ins.metrics
	if s := o.stats; s != nil {
		m.Counter("ssm/lik_evals").Add(s.LikEvals.Load())
		m.Counter("ssm/starts").Add(s.Starts.Load())
		m.Counter("ssm/restarts").Add(s.Restarts.Load())
		m.Counter("ssm/fit_failures").Add(s.FitFailures.Load())
		m.Counter("scan/prefix_resumes").Add(s.PrefixResumes.Load())
	}
	m.Counter(st.family + "/series").Inc()
	if o.fail == nil {
		m.Counter(st.family + "/fits").Add(int64(o.res.Fits))
		if st.costs && ins.exact {
			evals := changepoint.ScanEvaluations(len(job.series))
			m.Counter(st.family + "/candidates").Add(int64(evals))
			if refits := o.res.Fits - evals; refits > 0 {
				m.Counter(st.family + "/warm_refits").Add(int64(refits))
			}
		}
	}
	m.Timer("time/" + st.family + "/series").Observe(o.dur)
}

// reuseScan resolves a duplicate job from its representative's successful
// scan e. The job's own fault point runs first, with runScan's panic
// isolation, so keyed faults still fail exactly their key; then the job
// takes e's Result whole, Fits included, and under Explain a deep copy of
// its provenance.
func reuseScan(st scanStage, job scanJob, e memoEntry, explain bool) (res changepoint.Result, fail *Failure, prov *changepoint.Provenance) {
	defer func() {
		if r := recover(); r != nil {
			res = changepoint.Result{}
			fail = scanFailure(job.key, st.failure, fmt.Errorf("panic: %v", r))
			fail.Panicked = true
		}
	}()
	if explain {
		prov = &changepoint.Provenance{}
	}
	if err := faultpoint.Inject(st.site, job.key.String()); err != nil {
		return res, scanFailure(job.key, st.failure, err), prov
	}
	return e.res, nil, cloneProvenance(e.prov)
}

// cloneProvenance deep-copies a scan's provenance, so no two series'
// records share a ladder.
func cloneProvenance(p *changepoint.Provenance) *changepoint.Provenance {
	if p == nil {
		return nil
	}
	c := *p
	c.Candidates = slices.Clone(p.Candidates)
	c.Steps = slices.Clone(p.Steps)
	c.Params = slices.Clone(p.Params)
	return &c
}

// runScan searches one series — leaf or aggregate — with panic isolation: a
// crash anywhere in the model fitting stack fails this series only (the
// prefix scan re-panics contender crashes on this goroutine, so the recover
// here covers them too). The cancelled return distinguishes a context abort
// (not a series failure) from a genuine one. The job's key identifies the
// series in the failure record and in st.site's fault-point matches. budget
// supplies the scan's level-two extra workers; nil runs the scan serially.
// trace receives the scan's intra-scan spans; prov is the series' decision
// provenance (non-nil only under Options.Explain, and kept — possibly
// partial — on failure).
func runScan(ctx context.Context, st scanStage, job scanJob, opts Options, budget *workerBudget, stats *ssm.FitStats, trace obs.SpanObserver) (res changepoint.Result, fail *Failure, cancelled bool, prov *changepoint.Provenance) {
	defer func() {
		if r := recover(); r != nil {
			res = changepoint.Result{}
			fail = scanFailure(job.key, st.failure, fmt.Errorf("panic: %v", r))
			fail.Panicked = true
			cancelled = false
		}
	}()
	if opts.Explain {
		prov = &changepoint.Provenance{}
	}
	if err := faultpoint.Inject(st.site, job.key.String()); err != nil {
		return res, scanFailure(job.key, st.failure, err), false, prov
	}
	dopts := changepoint.DetectOptions{
		Seasonal: opts.Seasonal, Stats: stats, Provenance: prov, Trace: trace,
	}
	if opts.Method == MethodBinary {
		dopts.Method = changepoint.SearchBinary
	} else {
		// Level two of the worker budget: claim idle tokens (beyond this
		// series' own) for the scan's contender workers, returning them as
		// soon as the scan finishes. The scan's result does not depend on
		// how many we get.
		dopts.Method = changepoint.SearchExactPrefix
		dopts.Workers = 1
		if budget != nil {
			target := opts.ScanWorkers
			if target <= 0 {
				target = opts.Workers
			}
			if extra := budget.tryAcquire(target - 1); extra > 0 {
				defer budget.release(extra)
				dopts.Workers += extra
			}
		}
	}
	res, err := changepoint.Detect(ctx, job.series, dopts)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return changepoint.Result{}, nil, true, prov
		}
		return changepoint.Result{}, scanFailure(job.key, st.failure, err), false, prov
	}
	return res, nil, false, prov
}

// scanFailure builds the failure record for a series scan, extracting the
// multi-start attempt count when the fit stack provides one.
func scanFailure(key SeriesKey, stage FailureStage, err error) *Failure {
	f := &Failure{
		Stage: stage, Kind: key.Kind, Disease: key.Disease, Medicine: key.Medicine, Node: key.Node,
		Month: -1, Err: err.Error(),
	}
	var oe *ssm.OptimizationError
	if errors.As(err, &oe) {
		f.Attempts = oe.Attempts
	}
	return f
}
