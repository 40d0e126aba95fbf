package trend

import (
	"slices"

	"mictrend/internal/medmodel"
	"mictrend/internal/mic"
)

// Analyzer runs the pipeline over a corpus that grows a month at a time —
// the serving core's fold — without redoing the work that depends on one
// month alone. Between calls it keeps, per month:
//
//   - the filtered month (mic.FilterMonthly);
//   - its HashMonth fingerprint, computed only when Options.Checkpoint is
//     set, since nothing else reads it;
//   - the month's reproduced pair sums (Eq. 7), together with the model
//     they came from: the fit that produced the model, or a cold
//     reproduction under it.
//
// Each entry is keyed by the *mic.Monthly it was derived from, and holds
// that pointer, so its address cannot be reused while the entry lives. When
// the month at index i is a different pointer from the last call, entry i
// and every entry after it are dropped; a corpus that lost its tail simply
// drops those entries. Pair sums are reused only when the month's model is
// the same pointer as before: a refitted month brings its sums from the
// fit, and a failed checkpoint load or a fallback model (rebuilt on every
// call) is reproduced again.
//
// Months handed to an Analyzer must not be mutated afterwards: a month
// changed in place would be served from its stale derived state. Replace a
// changed month with a new Monthly instead. An Analyzer is not safe for
// concurrent use.
type Analyzer struct {
	opts   Options
	months []monthState
}

// monthState is what one month contributes to an analysis on its own.
type monthState struct {
	src      *mic.Monthly // the month the state was derived from
	filtered *mic.Monthly
	hash     uint64          // HashMonth(filtered); set only with a Checkpointer
	model    *medmodel.Model // the model sums came from
	sums     medmodel.MonthSums
}

// NewAnalyzer returns an Analyzer that runs the pipeline with opts.
func NewAnalyzer(opts Options) *Analyzer { return &Analyzer{opts: opts} }

// filterMonths brings the per-month state in line with ds, filtering (and,
// with a Checkpointer, fingerprinting) only the months it has not seen, and
// returns the filtered dataset plus each month's fingerprint (nil without a
// Checkpointer).
func (a *Analyzer) filterMonths(ds *mic.Dataset, opts Options, ins *pipelineInstruments) (*mic.Dataset, []uint64) {
	keep := 0
	for keep < len(a.months) && keep < len(ds.Months) && a.months[keep].src == ds.Months[keep] {
		keep++
	}
	clear(a.months[keep:]) // release the dropped months
	a.months = slices.Grow(a.months[:keep], len(ds.Months)-keep)

	filtered := &mic.Dataset{
		Diseases: ds.Diseases, Medicines: ds.Medicines, Hospitals: ds.Hospitals,
		Months: make([]*mic.Monthly, len(ds.Months)),
	}
	var hashes []uint64
	if opts.Checkpoint != nil {
		hashes = make([]uint64, len(ds.Months))
	}
	fopts := mic.FilterOptions{MinMonthlyFreq: opts.MinMonthlyFreq}
	for i, m := range ds.Months {
		if i >= keep {
			st := monthState{src: m, filtered: mic.FilterMonthly(m, fopts)}
			if hashes != nil {
				st.hash = HashMonth(st.filtered, opts.EM)
			}
			a.months = append(a.months, st)
		}
		filtered.Months[i] = a.months[i].filtered
		if hashes != nil {
			hashes[i] = a.months[i].hash
		}
	}
	if ins != nil && len(ds.Months) > keep {
		ins.metrics.Counter("trend/months_prepared").Add(int64(len(ds.Months) - keep))
	}
	return filtered, hashes
}

// reproduce runs the reproduce stage over the filtered dataset: sums[t]
// holds the Eq. 7 sums of a month fitted in this call, or none. A month
// without them reuses its kept sums when its model is the one they came
// from, and is reproduced otherwise.
func (a *Analyzer) reproduce(d *mic.Dataset, models []*medmodel.Model, sums []medmodel.MonthSums, workers int, ins *pipelineInstruments) (*medmodel.SeriesSet, error) {
	missing := 0
	for t, m := range models {
		if !sums[t].Reproduced() && a.months[t].model == m {
			sums[t] = a.months[t].sums
		} else {
			missing++
		}
	}
	series, err := medmodel.ReproduceMonths(d, models, sums, workers)
	if err != nil {
		return nil, err
	}
	for t, m := range models {
		a.months[t].model, a.months[t].sums = m, sums[t]
	}
	if ins != nil && missing > 0 {
		ins.metrics.Counter("trend/months_reproduced").Add(int64(missing))
	}
	return series, nil
}
