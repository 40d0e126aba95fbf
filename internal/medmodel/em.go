package medmodel

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"mictrend/internal/faultpoint"
	"mictrend/internal/mic"
	"mictrend/internal/obs"
)

// FitOptions tunes the EM loop.
type FitOptions struct {
	// MaxIter bounds EM iterations (default 50).
	MaxIter int
	// Tol is the relative log-likelihood improvement below which EM stops
	// (default 1e-6).
	Tol float64
	// Workers bounds FitAll's concurrency across months (default
	// GOMAXPROCS). Fit itself is single-threaded.
	Workers int
	// PriorWeight, when positive, chains a Dirichlet prior across months
	// (the paper's §IX Dynamic Topic Model direction): FitAll fits months
	// serially, each month's φ carrying a prior centered at the previous
	// month's fitted distributions with this concentration (pseudo-count
	// mass per disease). The zero value disables the prior — months are
	// independent and fitted in parallel.
	PriorWeight float64
	// Observer, when non-nil, receives one obs.MonthFitted event per month
	// from FitAll, delivered in ascending month order for any worker count.
	// A panicking Observer silently loses its remaining events (wrap with
	// obs.Guard to intercept the panic); it never crashes a fit worker.
	Observer obs.Observer
	// Metrics, when non-nil, collects EM instrumentation: per-month
	// iteration counts and per-iteration sweep timing. Nil costs nothing on
	// the fit path.
	Metrics *obs.Registry
	// Trace, when non-nil, receives one "em/month" span per month from
	// FitAll, timed around the month's fit and emitted in ascending month
	// order for any worker count (the same Sequencer that orders Observer
	// events). A nil Trace costs nothing — no clock reads, no allocations.
	Trace obs.SpanObserver
	// TraceConvergence records each month's per-iteration log-likelihood in
	// Model.LogLikTrace, the EM convergence evidence the explain artifacts
	// export. Off (the default) the fit loop stores only the final value and
	// allocates no trace.
	TraceConvergence bool
	// InitialPrior seeds the smoothed chain's first month (PriorWeight > 0
	// only): FitAll centers month 0's Dirichlet prior at this model instead
	// of starting the chain cold. A checkpoint-resumed analysis passes the
	// last reused posterior here so the continued chain is bit-identical to
	// one that never stopped. Ignored when PriorWeight is zero.
	InitialPrior *Model
}

// WithDefaults returns the options with the EM loop defaults filled in, the
// exact values Fit and FitAll use; exposed so checkpoint fingerprints hash
// the effective configuration rather than the zero values.
func (o FitOptions) WithDefaults() FitOptions { return o.withDefaults() }

func (o FitOptions) withDefaults() FitOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	return o
}

// emIndex is the dense-indexed (CSR-style) view of one month's usable
// records, built once per Fit so the EM iterations run as flat array
// arithmetic instead of map-of-maps lookups. Diseases of the month are
// interned to contiguous indices; φ lives in one value array addressed
// through per-disease row ranges; and every (record, medicine occurrence,
// disease) triple the E-step touches is resolved to its position in that
// array ahead of time — the inner loop then performs no hashing at all.
type emIndex struct {
	diseases []mic.DiseaseID // interned disease ids, ascending
	rowStart []int           // row d occupies [rowStart[d], rowStart[d+1]) below
	rowMed   []mic.MedicineID
	val      []float64 // current φ iterate
	next     []float64 // Eq. 5 numerator accumulator
	rowSum   []float64 // Eq. 5 denominator accumulator, per disease

	// Per-record dense θ (Eq. 2): record r owns slots
	// [thetaStart[r], thetaStart[r+1]).
	thetaStart []int
	thetaDis   []int32 // interned disease index per slot
	thetaVal   []float64

	// Occurrence table: record r's o-th medicine occurrence and θ-slot s map
	// to pos[occStart[r]+o*slots(r)+s], an index into val, or -1 when the
	// (disease, medicine) pair is outside the cooccurrence support.
	occStart []int
	pos      []int32

	numMeds []int // medicine occurrences per record
}

// newEMIndex interns the records against the cooccurrence support (which
// also provides the φ initialization, Eq. 10).
func newEMIndex(recs []*mic.Record) *emIndex {
	phi := cooccurrencePhi(recs)
	ix := &emIndex{}

	ix.diseases = make([]mic.DiseaseID, 0, len(phi))
	for d := range phi {
		ix.diseases = append(ix.diseases, d)
	}
	sort.Slice(ix.diseases, func(a, b int) bool { return ix.diseases[a] < ix.diseases[b] })
	diseaseIdx := make(map[mic.DiseaseID]int32, len(ix.diseases))
	ix.rowStart = make([]int, len(ix.diseases)+1)
	for di, d := range ix.diseases {
		diseaseIdx[d] = int32(di)
		row := phi[d]
		meds := make([]mic.MedicineID, 0, len(row))
		for med := range row {
			meds = append(meds, med)
		}
		sort.Slice(meds, func(a, b int) bool { return meds[a] < meds[b] })
		for _, med := range meds {
			ix.rowMed = append(ix.rowMed, med)
			ix.val = append(ix.val, row[med])
		}
		ix.rowStart[di+1] = len(ix.rowMed)
	}
	ix.next = make([]float64, len(ix.val))
	ix.rowSum = make([]float64, len(ix.diseases))

	ix.thetaStart = make([]int, len(recs)+1)
	ix.occStart = make([]int, len(recs)+1)
	ix.numMeds = make([]int, len(recs))
	slotOf := make(map[mic.DiseaseID]int) // scratch, cleared per record
	for r, rec := range recs {
		n := rec.NumDiseaseMentions()
		if n > 0 {
			// θ_rd accumulated per entry in record order — the same
			// quotient-sum Theta computes, but at a deterministic slot.
			for _, dc := range rec.Diseases {
				s, ok := slotOf[dc.Disease]
				if !ok {
					s = len(ix.thetaVal) - ix.thetaStart[r]
					slotOf[dc.Disease] = s
					di, inSupport := diseaseIdx[dc.Disease]
					if !inSupport {
						di = -1
					}
					ix.thetaDis = append(ix.thetaDis, di)
					ix.thetaVal = append(ix.thetaVal, 0)
				}
				ix.thetaVal[ix.thetaStart[r]+s] += float64(dc.Count) / float64(n)
			}
		}
		for d := range slotOf {
			delete(slotOf, d)
		}
		ix.thetaStart[r+1] = len(ix.thetaVal)
		slots := ix.thetaStart[r+1] - ix.thetaStart[r]

		ix.numMeds[r] = len(rec.Medicines)
		for _, med := range rec.Medicines {
			for s := 0; s < slots; s++ {
				di := ix.thetaDis[ix.thetaStart[r]+s]
				p := int32(-1)
				if di >= 0 {
					lo, hi := ix.rowStart[di], ix.rowStart[di+1]
					row := ix.rowMed[lo:hi]
					j := sort.Search(len(row), func(k int) bool { return row[k] >= med })
					if j < len(row) && row[j] == med {
						p = int32(lo + j)
					}
				}
				ix.pos = append(ix.pos, p)
			}
		}
		ix.occStart[r+1] = len(ix.pos)
	}
	return ix
}

// sweep is one fused pass over the occurrence table under the current φ
// iterate φ_k. It returns ll(φ_k), the Φ part of Eq. 3, and accumulates the
// E-step of Eqs. 5–6 under φ_k into next and rowSum: each medicine
// occurrence is distributed across its record's diseases proportionally to
// θ_rd·φ_dm. An occurrence's E-step denominator is, term for term and in the
// same slot order, the predictive probability the likelihood sums, so one
// pass yields both.
func (ix *emIndex) sweep() float64 {
	clear(ix.next)
	clear(ix.rowSum)
	var ll float64
	for r := range ix.numMeds {
		ts := ix.thetaStart[r]
		slots := ix.thetaStart[r+1] - ts
		if slots == 0 {
			continue
		}
		theta := ix.thetaVal[ts : ts+slots]
		dis := ix.thetaDis[ts : ts+slots]
		base := ix.occStart[r]
		for o := 0; o < ix.numMeds[r]; o++ {
			blk := ix.pos[base+o*slots : base+(o+1)*slots]
			var denom float64
			for s, p := range blk {
				if p >= 0 {
					denom += theta[s] * ix.val[p]
				}
			}
			p := denom
			if p <= 0 {
				p = math.SmallestNonzeroFloat64
			}
			ll += math.Log(p)
			if denom <= 0 {
				continue
			}
			for s, p := range blk {
				if p < 0 {
					continue
				}
				q := theta[s] * ix.val[p] / denom
				if q == 0 {
					continue
				}
				ix.next[p] += q
				ix.rowSum[dis[s]] += q
			}
		}
	}
	return ll
}

// mstep renormalizes the accumulated E-step into the next φ iterate
// (Eq. 5).
func (ix *emIndex) mstep() {
	for d, sum := range ix.rowSum {
		lo, hi := ix.rowStart[d], ix.rowStart[d+1]
		if sum <= 0 {
			// The row lost all mass: zero it, the dense-index equivalent of
			// deleting the map row (lookups read 0 either way).
			clear(ix.val[lo:hi])
			continue
		}
		for i := lo; i < hi; i++ {
			ix.val[i] = ix.next[i] / sum
		}
	}
}

// phiMap converts the dense rows back to the public map representation,
// dropping rows and entries that carry no mass (mirroring the sparsity the
// map-based accumulation produced).
func (ix *emIndex) phiMap() map[mic.DiseaseID]map[mic.MedicineID]float64 {
	out := make(map[mic.DiseaseID]map[mic.MedicineID]float64, len(ix.diseases))
	for di, d := range ix.diseases {
		lo, hi := ix.rowStart[di], ix.rowStart[di+1]
		var row map[mic.MedicineID]float64
		for i := lo; i < hi; i++ {
			if ix.val[i] <= 0 {
				continue
			}
			if row == nil {
				row = make(map[mic.MedicineID]float64, hi-lo)
			}
			row[ix.rowMed[i]] = ix.val[i]
		}
		if row != nil {
			out[d] = row
		}
	}
	return out
}

// Fit estimates the latent-variable medication model for one month with the
// EM algorithm of §IV-C: θ is closed-form (Eq. 2), η is closed-form (Eq. 4),
// and Φ alternates with the responsibilities Q via Eqs. 5–6, starting from
// the cooccurrence estimate (which also fixes Φ's support: a (d, m) pair can
// only carry probability if it cooccurs in some record). The E/M sweep runs
// over a dense index interned once per call, so iterations are flat array
// arithmetic, and one fused pass per iteration yields both the likelihood and
// the next E-step; the fitted Φ is converted back to the map representation
// the Model API exposes. Results are deterministic.
func Fit(month *mic.Monthly, vocabMedicines int, opts FitOptions) (*Model, error) {
	opts = opts.withDefaults()
	recs, err := usableRecords(month)
	if err != nil {
		return nil, err
	}

	ix := newEMIndex(recs)
	model := &Model{
		Eta: EstimateEta(month),
		M:   vocabMedicines,
	}

	// The timer resolves to nil when metrics are off, so the disabled loop
	// pays one pointer check per iteration, reads no clock and allocates
	// nothing.
	var tIterate *obs.Timer
	var t0 time.Time
	if m := opts.Metrics; m != nil {
		tIterate = m.Timer("time/em/iterate")
		t0 = time.Now()
	}

	// Iteration k applies the M-step accumulated under φ_{k-1} and sweeps
	// once under φ_k for both ll(φ_k) and the next E-step: K iterations cost
	// K+1 sweeps. The priming sweep's E-step is under the cooccurrence
	// start φ_0, whose likelihood is not reported; the first iteration's
	// timing includes it.
	ix.sweep()
	prevLL := math.Inf(-1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		ix.mstep()
		ll := ix.sweep()
		if tIterate != nil {
			now := time.Now()
			tIterate.Observe(now.Sub(t0))
			t0 = now
		}
		model.Iterations = iter + 1
		model.LogLik = ll
		if opts.TraceConvergence {
			model.LogLikTrace = append(model.LogLikTrace, ll)
		}
		if prevLL != math.Inf(-1) {
			denom := math.Abs(prevLL)
			if denom == 0 {
				denom = 1
			}
			if (ll-prevLL)/denom < opts.Tol {
				break
			}
		}
		prevLL = ll
	}
	model.Phi = ix.phiMap()
	return model, nil
}

// MonthError records one month whose EM fit failed. FitAll reports failed
// months instead of aborting, so a run over many months degrades to the
// months that did fit.
type MonthError struct {
	// Month is the index of the failed month.
	Month int
	// Err is the fit error (for a crashed worker, the recovered panic value).
	Err error
	// Panicked reports whether the failure was a recovered worker panic
	// rather than a returned error.
	Panicked bool
}

// fitMonth fits one month with panic isolation: a crash inside the EM loop
// becomes an error confined to that month instead of a process abort.
func fitMonth(month *mic.Monthly, vocabMedicines int, opts FitOptions) (m *Model, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, panicked = nil, true
			err = fmt.Errorf("medmodel: month %d fit panicked: %v", month.Month, r)
		}
	}()
	if err := faultpoint.Inject("medmodel/fit-month", strconv.Itoa(month.Month)); err != nil {
		return nil, false, err
	}
	m, err = Fit(month, vocabMedicines, opts)
	return m, false, err
}

// fitAllInstruments carries FitAll's observability wiring: a sequencer that
// re-orders per-month completions into ascending month order, the guarded
// observer, and metric handles resolved once. A nil *fitAllInstruments (no
// observer, no metrics) costs one pointer check per month.
type fitAllInstruments struct {
	seq     *obs.Sequencer
	deliver obs.Observer
	trace   obs.SpanObserver
	total   int
	months  *obs.Counter   // em/months_fitted
	iters   *obs.Counter   // em/iterations
	hIters  *obs.Histogram // em/iterations_per_month
}

// newFitAllInstruments returns nil when opts carries no observer, no span
// sink, and no metrics registry.
func newFitAllInstruments(opts FitOptions, total int) *fitAllInstruments {
	if opts.Observer == nil && opts.Metrics == nil && opts.Trace == nil {
		return nil
	}
	ins := &fitAllInstruments{
		seq:     obs.NewSequencer(),
		deliver: obs.Guard(opts.Observer, nil),
		trace:   obs.GuardSpans(opts.Trace, nil),
		total:   total,
	}
	if m := opts.Metrics; m != nil {
		ins.months = m.Counter("em/months_fitted")
		ins.iters = m.Counter("em/iterations")
		ins.hIters = m.Histogram("em/iterations_per_month", 1, 2, 5, 10, 20, 50)
	}
	return ins
}

// began stamps a month fit's start, only when spans are on: the untraced
// path keeps its no-clock-read contract.
func (ins *fitAllInstruments) began() time.Time {
	if ins == nil || ins.trace == nil {
		return time.Time{}
	}
	return time.Now()
}

// monthDone accounts one finished month. Metric merges and event deliveries
// run in ascending month order regardless of which worker finished first,
// so registry snapshots and event streams are identical for any worker
// split. Safe from concurrent workers.
func (ins *fitAllInstruments) monthDone(ctx context.Context, i int, m *Model, err error, began time.Time) {
	if ins == nil {
		return
	}
	var dur time.Duration
	if ins.trace != nil {
		dur = time.Since(began)
	}
	ins.seq.Done(i, func() {
		if m != nil {
			ins.months.Inc()
			ins.iters.Add(int64(m.Iterations))
			ins.hIters.Observe(float64(m.Iterations))
		}
		if ins.trace != nil && ctx.Err() == nil {
			sp := obs.SpanEvent{
				Cat: "em", Name: "em/month", TID: obs.LaneEM,
				Start: began, Duration: dur, Month: i,
			}
			if m != nil {
				sp.Detail = "iters=" + strconv.Itoa(m.Iterations)
			}
			if err != nil {
				sp.Err = err.Error()
			}
			ins.trace(sp)
		}
		if ins.deliver == nil || ctx.Err() != nil {
			return
		}
		e := obs.Event{
			Kind: obs.MonthFitted, Stage: "model",
			Month: i, Done: i + 1, Total: ins.total,
		}
		if err != nil {
			e.Err = err.Error()
		}
		ins.deliver(e)
	})
}

// FitAll fits one model per month of the dataset. With a zero
// opts.PriorWeight months are independent and fitted concurrently by a
// bounded pool of opts.Workers goroutines (default GOMAXPROCS); the models
// are identical to those of a serial month-by-month loop. A positive
// PriorWeight switches to the inherently serial smoothed chain, each month's
// prior centered at the previous month's posterior.
//
// FitAll degrades rather than failing atomically: a month whose fit errors
// or panics leaves a nil entry in the returned slice and a MonthError
// (ascending by month), while every other month's model is still produced.
// The error return is reserved for cancellation — when ctx is cancelled the
// already-fitted models are returned alongside ctx's error, and no new month
// fits start.
func FitAll(ctx context.Context, d *mic.Dataset, opts FitOptions) ([]*Model, []MonthError, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.PriorWeight > 0 {
		return fitAllSmoothed(ctx, d, opts)
	}
	models := make([]*Model, d.T())
	errs := make([]error, len(d.Months))
	panicked := make([]bool, len(d.Months))
	ins := newFitAllInstruments(opts, len(d.Months))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(d.Months) {
		workers = len(d.Months)
	}
	if workers <= 1 {
		for i, month := range d.Months {
			if err := ctx.Err(); err != nil {
				return models, monthErrors(errs, panicked), err
			}
			began := ins.began()
			models[i], panicked[i], errs[i] = fitMonth(month, d.Medicines.Len(), opts)
			ins.monthDone(ctx, i, models[i], errs[i], began)
		}
	} else {
		in := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range in {
					if ctx.Err() != nil {
						continue // drain: cancelled before this month started
					}
					began := ins.began()
					models[i], panicked[i], errs[i] = fitMonth(d.Months[i], d.Medicines.Len(), opts)
					ins.monthDone(ctx, i, models[i], errs[i], began)
				}
			}()
		}
		for i := range d.Months {
			select {
			case in <- i:
			case <-ctx.Done():
			}
		}
		close(in)
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return models, monthErrors(errs, panicked), err
	}
	return models, monthErrors(errs, panicked), nil
}

// fitAllSmoothed is FitAll's PriorWeight > 0 path: the serial smoothed
// chain with the same degradation contract — a failed month leaves a nil
// model and a MonthError while the chain continues from the last month that
// did fit (its posterior stays the prior).
func fitAllSmoothed(ctx context.Context, d *mic.Dataset, opts FitOptions) ([]*Model, []MonthError, error) {
	models := make([]*Model, d.T())
	errs := make([]error, len(d.Months))
	panicked := make([]bool, len(d.Months))
	ins := newFitAllInstruments(opts, len(d.Months))
	prev := opts.InitialPrior
	for i, month := range d.Months {
		if err := ctx.Err(); err != nil {
			return models, monthErrors(errs, panicked), err
		}
		began := ins.began()
		models[i], panicked[i], errs[i] = fitMonthSmoothed(month, d.Medicines.Len(), opts, prev)
		if models[i] != nil {
			prev = models[i]
		}
		ins.monthDone(ctx, i, models[i], errs[i], began)
	}
	if err := ctx.Err(); err != nil {
		return models, monthErrors(errs, panicked), err
	}
	return models, monthErrors(errs, panicked), nil
}

// fitMonthSmoothed is fitMonth for the smoothed chain: the same faultpoint
// site and panic isolation, with the previous month's posterior as prior.
func fitMonthSmoothed(month *mic.Monthly, vocabMedicines int, opts FitOptions, prior *Model) (m *Model, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, panicked = nil, true
			err = fmt.Errorf("medmodel: month %d fit panicked: %v", month.Month, r)
		}
	}()
	if err := faultpoint.Inject("medmodel/fit-month", strconv.Itoa(month.Month)); err != nil {
		return nil, false, err
	}
	m, err = FitSmoothed(month, vocabMedicines, opts, prior, opts.PriorWeight)
	return m, false, err
}

// monthErrors collects the per-month failures in month order.
func monthErrors(errs []error, panicked []bool) []MonthError {
	var out []MonthError
	for i, err := range errs {
		if err != nil {
			out = append(out, MonthError{Month: i, Err: err, Panicked: panicked[i]})
		}
	}
	return out
}

// FallbackModel builds the cooccurrence-initialized medication model without
// running EM — the degradation target when a month's EM fit fails or
// crashes. It is the exact model EM starts from (Eq. 10 support and
// estimate), so downstream series reproduction stays well-defined, just
// without the latent-variable refinement. A month with no usable records
// yields a model with an empty Φ, whose responsibilities fall back to θ.
func FallbackModel(month *mic.Monthly, vocabMedicines int) *Model {
	model := &Model{Eta: EstimateEta(month), M: vocabMedicines}
	if recs, err := usableRecords(month); err == nil {
		model.Phi = cooccurrencePhi(recs)
	}
	return model
}

// cooccurrencePhi computes the Eq. 10 estimate used both as the Cooccurrence
// baseline and as EM initialization. Cooc_r(d, m) counts each occurrence of
// medicine m in a record once per distinct disease d of the record.
func cooccurrencePhi(recs []*mic.Record) map[mic.DiseaseID]map[mic.MedicineID]float64 {
	phi := make(map[mic.DiseaseID]map[mic.MedicineID]float64)
	rowSums := make(map[mic.DiseaseID]float64)
	for _, r := range recs {
		for _, dc := range r.Diseases {
			row, ok := phi[dc.Disease]
			if !ok {
				row = make(map[mic.MedicineID]float64)
				phi[dc.Disease] = row
			}
			for _, med := range r.Medicines {
				row[med]++
				rowSums[dc.Disease]++
			}
		}
	}
	for d, row := range phi {
		sum := rowSums[d]
		if sum <= 0 {
			delete(phi, d)
			continue
		}
		for med := range row {
			row[med] /= sum
		}
	}
	return phi
}
