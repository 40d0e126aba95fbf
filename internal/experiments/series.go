package experiments

import (
	"context"
	"sort"

	"mictrend/internal/mic"
	"mictrend/internal/par"
	"mictrend/internal/trend"
)

// LabeledSeries is one reproduced time series entering the Table IV–VI
// sweeps.
type LabeledSeries struct {
	Kind     trend.SeriesKind
	Disease  mic.DiseaseID
	Medicine mic.MedicineID
	Values   []float64
}

// SampleSeries returns up to MaxSeriesPerKind disease, medicine, and
// prescription series each, ordered by id. Scenario entities are interned
// first by the generator, so the cap always retains the paper's case-study
// series.
func (e *Env) SampleSeries() ([]LabeledSeries, error) {
	series, _, err := e.Series()
	if err != nil {
		return nil, err
	}
	max := e.Config.MaxSeriesPerKind
	var out []LabeledSeries

	diseases := series.Diseases()
	sort.Slice(diseases, func(a, b int) bool { return diseases[a] < diseases[b] })
	if max > 0 && len(diseases) > max {
		diseases = diseases[:max]
	}
	for _, d := range diseases {
		out = append(out, LabeledSeries{Kind: trend.KindDisease, Disease: d, Values: series.Disease(d)})
	}

	meds := series.Medicines()
	sort.Slice(meds, func(a, b int) bool { return meds[a] < meds[b] })
	if max > 0 && len(meds) > max {
		meds = meds[:max]
	}
	for _, m := range meds {
		out = append(out, LabeledSeries{Kind: trend.KindMedicine, Medicine: m, Values: series.Medicine(m)})
	}

	pairs := make([]mic.Pair, 0, len(series.Pairs))
	for p := range series.Pairs {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].Disease != pairs[b].Disease {
			return pairs[a].Disease < pairs[b].Disease
		}
		return pairs[a].Medicine < pairs[b].Medicine
	})
	pairs = capSeries(pairs, max)
	for _, p := range pairs {
		out = append(out, LabeledSeries{
			Kind: trend.KindPrescription, Disease: p.Disease, Medicine: p.Medicine,
			Values: series.Pair(p),
		})
	}
	return out, nil
}

// parallelFor runs fn(i) for i in [0, n) on par.Each's pool, returning the
// lowest failing index's error. An experiment's units share one stateless
// function, so every worker runs fn.
func parallelFor(n, workers int, fn func(i int) error) error {
	return par.Each(context.Background(), n, workers, func() func(int) error { return fn })
}
