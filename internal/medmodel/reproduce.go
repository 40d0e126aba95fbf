package medmodel

import (
	"context"
	"errors"
	"slices"
	"sort"

	"mictrend/internal/mic"
	"mictrend/internal/par"
)

// SeriesSet holds reproduced monthly time series: Pairs is the paper's
// X_P (Eq. 7); disease and medicine series (Eq. 8) are marginal sums.
type SeriesSet struct {
	// T is the number of months.
	T int
	// Pairs maps each disease–medicine pair to its monthly estimated
	// prescription counts.
	Pairs map[mic.Pair][]float64

	diseaseSeries  map[mic.DiseaseID][]float64
	medicineSeries map[mic.MedicineID][]float64
}

// Responsibility for the cooccurrence baseline implements the paper's
// straightforward approach verbatim (§III-A): "assume the number of
// cooccurrences between each disease and medicine in MIC data as the
// prescription count". Every distinct disease of the record receives the
// full count for each medicine occurrence — deliberately NOT normalized, so
// frequent comorbid diseases (hypertension) soak up counts for unrelated
// medicines, the mis-prediction Figure 2a illustrates. ReproduceCooccurrence
// sums the same counts without building the map.
func (c *Cooccurrence) Responsibility(r *mic.Record, med mic.MedicineID) map[mic.DiseaseID]float64 {
	out := make(map[mic.DiseaseID]float64, len(r.Diseases))
	for _, dc := range r.Diseases {
		out[dc.Disease] = 1
	}
	return out
}

// Reproduce applies fitted monthly models to their months and accumulates
// the pair time series x_dmt (Eq. 7). models[i] must correspond to
// dataset.Months[i].
func Reproduce(d *mic.Dataset, models []*Model) (*SeriesSet, error) {
	return ReproduceParallel(d, models, 1)
}

// ReproduceCooccurrence reproduces the pair series with the cooccurrence
// baseline (the paper's Fig. 2a): a pair's count in a month is the number of
// its medicine's occurrences in records that mention its disease, each
// record's distinct diseases counted once (Cooccurrence.Responsibility). The
// counts are integers, so they are exact in any order. Records whose disease
// counts do not sum to a positive N_r count too: the baseline ignores θ.
func ReproduceCooccurrence(d *mic.Dataset, models []*Cooccurrence) (*SeriesSet, error) {
	if len(models) != d.T() {
		return nil, errOneModelPerMonth
	}
	s := &SeriesSet{T: d.T(), Pairs: make(map[mic.Pair][]float64)}
	for t, month := range d.Months {
		for i := range month.Records {
			r := &month.Records[i]
			for j, dc := range r.Diseases {
				if slices.ContainsFunc(r.Diseases[:j], func(e mic.DiseaseCount) bool { return e.Disease == dc.Disease }) {
					continue // the record's disease counts once
				}
				for _, med := range r.Medicines {
					seriesAt(s.Pairs, mic.Pair{Disease: dc.Disease, Medicine: med}, s.T)[t]++
				}
			}
		}
	}
	s.buildMarginals()
	return s, nil
}

var errOneModelPerMonth = errors.New("medmodel: one model per month required")

// ReproduceParallel is Reproduce with the months distributed over a bounded
// worker pool (workers ≤ 0 means GOMAXPROCS). Each month's sums come from
// its own occurrence table, whatever worker takes it, and each month owns a
// distinct series slot, so the result is bit-identical to Reproduce's for
// every worker count. It is ReproduceMonths with nothing kept from an
// earlier call.
func ReproduceParallel(d *mic.Dataset, models []*Model, workers int) (*SeriesSet, error) {
	return ReproduceMonths(d, models, make([]MonthSums, len(models)), workers)
}

// MonthSums is one month's reproduced pair counts (Eq. 7). They depend only
// on the month's records and the model they were reproduced with, so a
// caller that still holds both unchanged can hand them back to
// ReproduceMonths instead of reproducing the month again. FitMonths hands
// them back for every month it fits. The zero value means "not reproduced
// yet".
type MonthSums struct {
	pairs []pairValue
	done  bool
}

// Reproduced reports whether s holds a month's sums.
func (s MonthSums) Reproduced() bool { return s.done }

// ReproduceMonths is ReproduceParallel with per-month reuse: sums[t] that
// already holds sums must come from an earlier call or from FitMonths, over
// the same records of month t and the same models[t], and is placed as is.
// Every other month is reproduced on the pool the way a fit ends, with one
// sweep of its occurrence table under its model's φ, and stored back into
// sums[t]. The merge only places each month's values in its own slot, so
// the result is bit-identical to ReproduceParallel's.
func ReproduceMonths(d *mic.Dataset, models []*Model, sums []MonthSums, workers int) (*SeriesSet, error) {
	if len(models) != d.T() || len(sums) != d.T() {
		return nil, errOneModelPerMonth
	}
	todo := make([]int, 0, len(sums))
	for t := range sums {
		if !sums[t].done {
			todo = append(todo, t)
		}
	}
	// Each worker reuses one kernel's scratch across the months it takes.
	// The context is never done, so only a month's error stops the pool.
	err := par.Each(context.Background(), len(todo), workers, func() func(int) error {
		k := emKernel{reuse: len(todo) > 1}
		return func(j int) error {
			t := todo[j]
			if _, err := k.build(d.Months[t]); errors.Is(err, ErrEmptyMonth) {
				sums[t] = MonthSums{done: true} // no usable records: nothing to spread
				return nil
			} else if err != nil {
				return err
			}
			k.loadPhi(models[t].Phi)
			k.ix.sweep()
			sums[t] = k.sums()
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	// Serial merge in month order: each month writes only its own slot, so
	// the merge is pure placement — no cross-month float accumulation.
	s := &SeriesSet{T: d.T(), Pairs: make(map[mic.Pair][]float64)}
	for t := range sums {
		for _, pv := range sums[t].pairs {
			seriesAt(s.Pairs, pv.pair, s.T)[t] = pv.v
		}
	}
	s.buildMarginals()
	return s, nil
}

// seriesAt returns m's series for k, adding a zero one of n months when m
// has none.
func seriesAt[K comparable](m map[K][]float64, k K, n int) []float64 {
	series, ok := m[k]
	if !ok {
		series = make([]float64, n)
		m[k] = series
	}
	return series
}

// pairValue is one pair's reproduced count for one month.
type pairValue struct {
	pair mic.Pair
	v    float64
}

// loadPhi sets the built index's φ to phi on the month's cooccurrence
// support, 0 where phi holds no entry. phi's pairs outside the support are
// skipped: no occurrence of the month reaches them. Each value is written
// to its own cell, so map order does not matter.
func (k *emKernel) loadPhi(phi map[mic.DiseaseID]map[mic.MedicineID]float64) {
	ix := &k.ix
	clear(ix.val)
	for d, row := range phi {
		j := int(d) - int(k.dlo)
		if j < 0 || j >= len(k.rowOf) || k.rowOf[j] < 0 {
			continue
		}
		lo, hi := ix.rowStart[k.rowOf[j]], ix.rowStart[k.rowOf[j]+1]
		for m, v := range row {
			if i, ok := slices.BinarySearch(ix.rowMed[lo:hi], m); ok {
				ix.val[lo+i] = v
				ix.signed = ix.signed || v < 0
			}
		}
	}
}

// sums reads the month's Eq. 7 pair sums off the index after a sweep under
// the φ they reproduce: next holds each pair's Σ θ·φ·(w/p), its Eq. 6
// responsibilities summed over the month's occurrences. A pair is present
// when it received a nonzero responsibility, and the pairs come in
// ascending (disease, medicine) order.
func (k *emKernel) sums() MonthSums {
	ix := &k.ix
	var touched []bool
	if ix.signed {
		touched = make([]bool, len(ix.next))
	}
	if ix.skipped > 0 || touched != nil {
		ix.settle(touched)
	}
	pairs := make([]pairValue, 0, len(ix.next))
	for r, d := range ix.diseases {
		for i := ix.rowStart[r]; i < ix.rowStart[r+1]; i++ {
			// With no negative θ or φ every responsibility is ≥ 0, so a
			// pair received a nonzero one exactly when its sum is nonzero.
			if touched == nil && ix.next[i] != 0 || touched != nil && touched[i] {
				pairs = append(pairs, pairValue{pair: mic.Pair{Disease: d, Medicine: ix.rowMed[i]}, v: ix.next[i]})
			}
		}
	}
	return MonthSums{pairs: pairs, done: true}
}

// settle finishes what the last sweep left out of Eq. 7. An entry whose
// predictive probability p is not positive gets no E-step; Responsibility
// falls back to θ for it, so each of its cells adds θ·w to its pair. When
// touched is non-nil, settle also marks every pair that received a nonzero
// responsibility: θ·φ ≠ 0 under a positive p, θ ≠ 0 under the fallback.
// The denominators are summed as the sweep sums them.
func (ix *emIndex) settle(touched []bool) {
	var denom [tileW]float64
	for t, tl := range ix.tiles {
		lo, hi := int(tl.off), int(tl.off+tl.slots*tileW)
		d := denom[:tl.n]
		clear(d)
		for c := lo; c < hi; c += tileW {
			for l := range d {
				d[l] += ix.theta[c+l] * ix.val[ix.pos[c+l]]
			}
		}
		for l, p := range d {
			w := ix.weight[t*tileW+l]
			for c := lo + l; c < hi; c += tileW {
				i, th := ix.pos[c], ix.theta[c]
				if p <= 0 {
					ix.next[i] += th * w
				}
				if touched != nil && (p <= 0 && th != 0 || th*ix.val[i] != 0) {
					touched[i] = true
				}
			}
		}
	}
}

func (s *SeriesSet) buildMarginals() {
	s.diseaseSeries = make(map[mic.DiseaseID][]float64)
	s.medicineSeries = make(map[mic.MedicineID][]float64)
	// Accumulate in sorted pair order, not map order: the marginal sums are
	// floating point, and a run-dependent addition order would make the
	// disease/medicine series differ in their last bits between runs.
	pairs := make([]mic.Pair, 0, len(s.Pairs))
	for p := range s.Pairs {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].Disease != pairs[b].Disease {
			return pairs[a].Disease < pairs[b].Disease
		}
		return pairs[a].Medicine < pairs[b].Medicine
	})
	for _, pair := range pairs {
		ds := seriesAt(s.diseaseSeries, pair.Disease, s.T)
		ms := seriesAt(s.medicineSeries, pair.Medicine, s.T)
		for t, v := range s.Pairs[pair] {
			ds[t] += v
			ms[t] += v
		}
	}
}

// Pair returns the reproduced series for a pair, or nil.
func (s *SeriesSet) Pair(p mic.Pair) []float64 { return s.Pairs[p] }

// Disease returns x_dt = Σ_m x_dmt (Eq. 8), or nil.
func (s *SeriesSet) Disease(d mic.DiseaseID) []float64 { return s.diseaseSeries[d] }

// Medicine returns x_mt = Σ_d x_dmt (Eq. 8), or nil.
func (s *SeriesSet) Medicine(m mic.MedicineID) []float64 { return s.medicineSeries[m] }

// Diseases returns the ids with a nonzero series.
func (s *SeriesSet) Diseases() []mic.DiseaseID {
	out := make([]mic.DiseaseID, 0, len(s.diseaseSeries))
	for d := range s.diseaseSeries {
		out = append(out, d)
	}
	return out
}

// Medicines returns the ids with a nonzero series.
func (s *SeriesSet) Medicines() []mic.MedicineID {
	out := make([]mic.MedicineID, 0, len(s.medicineSeries))
	for m := range s.medicineSeries {
		out = append(out, m)
	}
	return out
}

// FilterMinTotal returns a copy keeping only pairs whose total frequency
// over the whole period is at least minTotal — the paper's §VI reliability
// filter ("total frequency during the said period is less than 10").
func (s *SeriesSet) FilterMinTotal(minTotal float64) *SeriesSet {
	out := &SeriesSet{T: s.T, Pairs: make(map[mic.Pair][]float64)}
	for pair, series := range s.Pairs {
		var total float64
		for _, v := range series {
			total += v
		}
		if total >= minTotal {
			out.Pairs[pair] = series
		}
	}
	out.buildMarginals()
	return out
}
