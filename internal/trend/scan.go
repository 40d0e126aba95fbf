package trend

import (
	"context"
	"errors"
	"fmt"
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
	// family+"/warm_refits" counters.
	costs bool
}

// The pipeline's three scan stages: Analyze's leaf detection, and Surveil's
// aggregate scans and drill-down scans.
var (
	detectStage  = scanStage{name: "detect", family: "scan", cat: "detect", failure: StageDetect, site: "trend/detect", costs: true}
	surveilStage = scanStage{name: "surveil", family: "surveil", cat: "surveil", failure: StageSurveil, site: "trend/surveil"}
	drillStage   = scanStage{name: "surveil-drill", family: "surveil-drill", cat: "surveil", failure: StageSurveil, site: "trend/surveil"}
)

// scanAll runs change point scans over jobs with a two-level worker budget:
// a shared pool of Options.Workers tokens admits series (level one), and
// each admitted exact scan opportunistically claims idle tokens for its
// contender fits (level two, see workerBudget). A wide batch behaves like a
// flat pool; a narrow batch or a draining tail moves the idle tokens into
// intra-series scan parallelism. shards partitions the job indices, each
// list with its own dispatcher over the shared budget; nil runs one
// dispatcher over every job in order.
//
// The pool is fault-tolerant and cancellable: a worker panic or a failed
// search is confined to its series (recorded as a Failure), and cancelling
// ctx stops dispatch immediately — in-flight searches abort within one model
// fit — returning the scans completed so far with ctx's error. Results,
// ok flags and provenance are assembled by job index, and per-series
// accounting is delivered in job order through a sequencer, so the outcome
// is byte-identical for any Workers/ScanWorkers/Shards split and, for the
// surviving series, whether or not other series failed. provs (Explain
// only) lists one entry per job that finished or failed, in job order;
// failed jobs keep their partial ladder alongside the failure.
func scanAll(ctx context.Context, st scanStage, jobs []scanJob, shards [][]int, opts Options, ins *pipelineInstruments) (results []changepoint.Result, ok []bool, failures []Failure, provs []SeriesProvenance, totalFits int, err error) {
	type outcome struct {
		i         int
		res       changepoint.Result
		fail      *Failure
		cancelled bool
		stats     *ssm.FitStats
		prov      *changepoint.Provenance
		began     time.Time
		dur       time.Duration
	}
	var trace obs.SpanObserver
	if ins != nil {
		trace = ins.trace
	}
	budget := newWorkerBudget(opts.Workers)
	out := make(chan outcome)
	run := func(i int, wg *sync.WaitGroup) {
		defer wg.Done()
		defer budget.release(1)
		if ctx.Err() != nil {
			out <- outcome{i: i, cancelled: true}
			return
		}
		o := outcome{i: i}
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
	}
	if shards == nil {
		all := make([]int, len(jobs))
		for i := range all {
			all[i] = i
		}
		shards = [][]int{all}
	}
	go func() {
		var dwg, wg sync.WaitGroup
		defer func() {
			dwg.Wait()
			wg.Wait()
			close(out)
		}()
		for _, list := range shards {
			dwg.Add(1)
			go func(list []int) {
				defer dwg.Done()
				for _, i := range list {
					if budget.acquire(ctx) != nil {
						return
					}
					wg.Add(1)
					go run(i, &wg)
				}
			}(list)
		}
	}()

	results = make([]changepoint.Result, len(jobs))
	ok = make([]bool, len(jobs))
	var scanProvs []*changepoint.Provenance
	var failAt []*Failure
	if opts.Explain {
		scanProvs = make([]*changepoint.Provenance, len(jobs))
		failAt = make([]*Failure, len(jobs))
	}
	var seq *obs.Sequencer
	if ins != nil {
		seq = obs.NewSequencer()
	}
	for o := range out {
		switch {
		case o.cancelled:
		case o.fail != nil:
			failures = append(failures, *o.fail)
		default:
			results[o.i] = o.res
			ok[o.i] = true
			totalFits += o.res.Fits
		}
		if opts.Explain && !o.cancelled {
			scanProvs[o.i] = o.prov
			failAt[o.i] = o.fail
		}
		if seq != nil {
			o := o
			seq.Done(o.i, func() {
				if o.cancelled {
					return
				}
				failErr := ""
				if o.fail != nil {
					failErr = o.fail.Err
				}
				ins.scanDone(st, jobs[o.i], o.res, failErr, o.stats, o.began, o.dur, o.i, len(jobs))
			})
		}
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

// scanDone accounts one finished scan: its per-series span, its metrics, and
// its SeriesDone event. scanAll invokes it through a sequencer in job-index
// order, so the registry merges and the SeriesDone stream are deterministic
// for any worker split.
func (ins *pipelineInstruments) scanDone(st scanStage, job scanJob, res changepoint.Result, failErr string, stats *ssm.FitStats, began time.Time, dur time.Duration, idx, total int) {
	key := job.key.String()
	if ins.trace != nil {
		sp := obs.SpanEvent{
			Cat: st.cat, Name: st.name + "/series", TID: obs.LaneDetect,
			Start: began, Duration: dur, Month: -1, Series: key,
		}
		switch {
		case failErr != "":
			// Degraded series: the span carries the failure stage and message.
			sp.Err = failErr
			sp.Detail = "stage=" + st.failure.String()
		case res.Detected():
			sp.Detail = "cp=" + strconv.Itoa(res.ChangePoint)
		default:
			sp.Detail = "cp=none"
		}
		ins.trace(sp)
	}
	if m := ins.metrics; m != nil {
		ins.addFitStats(stats)
		m.Counter(st.family + "/series").Inc()
		if failErr == "" {
			m.Counter(st.family + "/fits").Add(int64(res.Fits))
			if st.costs && ins.exact {
				evals := changepoint.ScanEvaluations(len(job.series))
				m.Counter(st.family + "/candidates").Add(int64(evals))
				if refits := res.Fits - evals; refits > 0 {
					m.Counter(st.family + "/warm_refits").Add(int64(refits))
				}
			}
		}
		m.Timer("time/" + st.family + "/series").Observe(dur)
	}
	if ins.deliver != nil {
		ins.deliver(obs.Event{
			Kind: obs.SeriesDone, Stage: st.name, Series: key,
			Month: -1, Done: idx + 1, Total: total, Duration: dur, Err: failErr,
		})
	}
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
