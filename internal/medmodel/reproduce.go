package medmodel

import (
	"cmp"
	"context"
	"errors"
	"math"
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
// applies the same rule through the streaming kernel.
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
// baseline (the paper's Fig. 2a).
func ReproduceCooccurrence(d *mic.Dataset, models []*Cooccurrence) (*SeriesSet, error) {
	phis := make([]map[mic.DiseaseID]map[mic.MedicineID]float64, len(models))
	for i, m := range models {
		phis[i] = m.Phi
	}
	return reproduceParallel(d, phis, true, make([]MonthSums, len(models)), 1)
}

// ReproduceParallel is Reproduce with the months distributed over a bounded
// worker pool (workers ≤ 0 means GOMAXPROCS). Each month accumulates into
// its own dense accumulator in record order — exactly the serial addition
// order for that month — and each month owns a distinct series slot, so the
// result is bit-identical to Reproduce's for every worker count. It is
// ReproduceMonths with nothing kept from an earlier call.
func ReproduceParallel(d *mic.Dataset, models []*Model, workers int) (*SeriesSet, error) {
	return ReproduceMonths(d, models, make([]MonthSums, len(models)), workers)
}

// MonthSums is one month's reproduced pair counts (Eq. 7). They depend only
// on the month's records and the model they were reproduced with, so a
// caller that still holds both unchanged can hand them back to
// ReproduceMonths instead of reproducing the month again. The zero value
// means "not reproduced yet".
type MonthSums struct {
	pairs []pairValue
	done  bool
}

// Reproduced reports whether s holds a month's sums.
func (s MonthSums) Reproduced() bool { return s.done }

// ReproduceMonths is ReproduceParallel with per-month reuse: sums[t] that
// already holds sums must come from an earlier call over the same records
// of month t and the same models[t], and is placed as is; every other entry
// is reproduced on the pool and stored back into sums[t]. The merge only
// places each month's values in its own slot — it adds no floats across
// months — so the result is bit-identical to ReproduceParallel's.
func ReproduceMonths(d *mic.Dataset, models []*Model, sums []MonthSums, workers int) (*SeriesSet, error) {
	phis := make([]map[mic.DiseaseID]map[mic.MedicineID]float64, len(models))
	for i, m := range models {
		phis[i] = m.Phi
	}
	return reproduceParallel(d, phis, false, sums, workers)
}

// reproduceParallel runs the streaming kernel over every month whose sums
// are missing: phis[t] is month t's φ, and unit selects the cooccurrence
// rule (q = 1 for every distinct disease of the record) over the model's
// responsibilities. It then merges all of sums into one SeriesSet.
func reproduceParallel(d *mic.Dataset, phis []map[mic.DiseaseID]map[mic.MedicineID]float64, unit bool, sums []MonthSums, workers int) (*SeriesSet, error) {
	if len(phis) != d.T() || len(sums) != d.T() {
		return nil, errors.New("medmodel: one model per month required")
	}
	todo := make([]int, 0, len(sums))
	for t := range sums {
		if !sums[t].done {
			todo = append(todo, t)
		}
	}
	// Each worker reuses one kernel's scratch across the months it takes.
	// No month fails and the context is never done, so Each returns nil.
	_ = par.Each(context.Background(), len(todo), workers, func() func(int) error {
		var k reproKernel
		return func(j int) error {
			t := todo[j]
			sums[t] = MonthSums{pairs: k.month(d.Months[t], phis[t], unit), done: true}
			return nil
		}
	})
	// Serial merge in month order: each month writes only its own slot, so
	// the merge is pure placement — no cross-month float accumulation.
	s := &SeriesSet{T: d.T(), Pairs: make(map[mic.Pair][]float64)}
	for t := range sums {
		for _, pv := range sums[t].pairs {
			series, ok := s.Pairs[pv.pair]
			if !ok {
				series = make([]float64, s.T)
				s.Pairs[pv.pair] = series
			}
			series[t] = pv.v
		}
	}
	s.buildMarginals()
	return s, nil
}

// pairValue is one pair's reproduced count for one month.
type pairValue struct {
	pair mic.Pair
	v    float64
}

// phiEntry is one φ_dm of a disease row, rows held in ascending medicine
// order so a lookup is a binary search.
type phiEntry struct {
	med mic.MedicineID
	val float64
}

// reproKernel is one worker's reusable scratch for the streaming Eq. 7
// reproduction of a month. Nothing in it is sized Diseases×Medicines: the
// disease-indexed slices span the month's disease ids (at most the
// vocabulary), the entry-indexed ones the month's φ support, and the slot
// slices the largest record.
type reproKernel struct {
	lo       mic.DiseaseID // smallest disease id of the month's records
	rowStart []int32       // disease lo+i owns entries [rowStart[i], rowStart[i+1])
	slotOf   []int32       // θ slot of disease lo+i in the current record, -1 outside it

	ents    []phiEntry // the month's φ support, row-major by disease
	acc     []float64  // Eq. 7 running sum per support entry
	touched []bool     // entry received a nonzero q (presence, even if the sum is 0)
	// over accumulates pairs outside φ's support, reachable only through
	// the θ fallback; each pair still has exactly one running sum.
	over map[mic.Pair]float64

	// The current record's distinct diseases in first-occurrence order.
	slotDis []int32   // disease index (id − lo) per slot
	theta   []float64 // θ_rd per slot (Eq. 2)
	w       []float64 // θ_rd·φ_dm per slot
	pos     []int32   // support entry of (d, m) per slot, -1 outside φ
}

// month reproduces one month's pair counts: every medicine occurrence of a
// record with diseases is spread over the record's distinct diseases by its
// responsibilities q_rld (Eq. 6), or by q = 1 per disease when unit is set
// (the cooccurrence baseline). The arithmetic is Model.Responsibility's term
// for term — θ accumulated per entry in record order, the normalizer summed
// in first-occurrence order, the θ fallback when it is not positive — and
// every pair's sum runs in record → medicine order, so the result is
// bit-identical to summing Responsibility's maps.
func (k *reproKernel) month(month *mic.Monthly, phi map[mic.DiseaseID]map[mic.MedicineID]float64, unit bool) []pairValue {
	span, maxSlots := k.span(month)
	if span == 0 {
		return nil
	}
	k.loadPhi(phi, span)
	k.over = nil
	if cap(k.slotDis) < maxSlots {
		k.slotDis = make([]int32, maxSlots)
		k.theta = make([]float64, maxSlots)
		k.w = make([]float64, maxSlots)
		k.pos = make([]int32, maxSlots)
	}
	for i := range month.Records {
		r := &month.Records[i]
		if len(r.Diseases) == 0 {
			continue
		}
		var n int
		for _, dc := range r.Diseases {
			n += dc.Count
		}
		slots := 0
		for _, dc := range r.Diseases {
			j := int32(dc.Disease - k.lo)
			s := k.slotOf[j]
			if s < 0 {
				s = int32(slots)
				k.slotOf[j] = s
				k.slotDis[s] = j
				k.theta[s] = 0
				slots++
			}
			// Theta leaves θ empty when N_r = 0: every slot stays 0.
			if n != 0 {
				k.theta[s] += float64(dc.Count) / float64(n)
			}
		}
		dis, theta := k.slotDis[:slots], k.theta[:slots]
		for _, med := range r.Medicines {
			if unit {
				for _, j := range dis {
					k.add(j, med, k.lookup(j, med), 1)
				}
				continue
			}
			var total float64
			for s, j := range dis {
				p := k.lookup(j, med)
				var phiDM float64
				if p >= 0 {
					phiDM = k.ents[p].val
				}
				k.pos[s] = p
				k.w[s] = theta[s] * phiDM
				total += k.w[s]
			}
			fallback := total <= 0
			for s, j := range dis {
				q := theta[s]
				if !fallback {
					q = k.w[s] / total
				}
				if q == 0 {
					continue
				}
				k.add(j, med, k.pos[s], q)
			}
		}
		for _, j := range dis {
			k.slotOf[j] = -1
		}
	}
	return k.collect(span)
}

// span sizes the disease-indexed scratch to the month's disease ids and
// returns the span (0 when no record has a disease) and the largest record's
// disease-entry count, which bounds its distinct-disease slots.
func (k *reproKernel) span(month *mic.Monthly) (span, maxSlots int) {
	lo, hi := mic.DiseaseID(math.MaxInt32), mic.DiseaseID(math.MinInt32)
	for i := range month.Records {
		r := &month.Records[i]
		for _, dc := range r.Diseases {
			lo, hi = min(lo, dc.Disease), max(hi, dc.Disease)
		}
		maxSlots = max(maxSlots, len(r.Diseases))
	}
	if hi < lo {
		return 0, 0
	}
	k.lo = lo
	span = int(hi) - int(lo) + 1
	if len(k.slotOf) < span {
		k.slotOf = make([]int32, span)
		for i := range k.slotOf {
			k.slotOf[i] = -1
		}
	}
	return span, maxSlots
}

// loadPhi lays φ out as per-disease rows sorted by medicine id and clears
// the accumulators over its support. Rows of diseases outside the month's
// span are skipped: no record of the month can reach them.
func (k *reproKernel) loadPhi(phi map[mic.DiseaseID]map[mic.MedicineID]float64, span int) {
	k.rowStart = resize(k.rowStart, span+1)
	clear(k.rowStart)
	for d, row := range phi {
		if i := int(d) - int(k.lo); i >= 0 && i < span {
			k.rowStart[i+1] = int32(len(row))
		}
	}
	for i := 0; i < span; i++ {
		k.rowStart[i+1] += k.rowStart[i]
	}
	support := int(k.rowStart[span])
	k.ents = resize(k.ents, support)
	for d, row := range phi {
		i := int(d) - int(k.lo)
		if i < 0 || i >= span {
			continue
		}
		e := k.ents[k.rowStart[i]:k.rowStart[i+1]]
		j := 0
		for med, v := range row {
			e[j] = phiEntry{med: med, val: v}
			j++
		}
		slices.SortFunc(e, func(a, b phiEntry) int { return cmp.Compare(a.med, b.med) })
	}
	k.acc = resize(k.acc, support)
	clear(k.acc)
	k.touched = resize(k.touched, support)
	clear(k.touched)
}

// lookup returns the support entry of (disease lo+j, med), or -1 when φ has
// no such entry.
func (k *reproKernel) lookup(j int32, med mic.MedicineID) int32 {
	base := k.rowStart[j]
	row := k.ents[base:k.rowStart[j+1]]
	a, b := 0, len(row)
	for a < b {
		h := int(uint(a+b) >> 1)
		if row[h].med < med {
			a = h + 1
		} else {
			b = h
		}
	}
	if a < len(row) && row[a].med == med {
		return base + int32(a)
	}
	return -1
}

// add accumulates q into the running sum of (disease lo+j, med): the support
// entry p, or the overflow accumulator when p < 0.
func (k *reproKernel) add(j int32, med mic.MedicineID, p int32, q float64) {
	if p >= 0 {
		k.acc[p] += q
		k.touched[p] = true
		return
	}
	if k.over == nil {
		k.over = make(map[mic.Pair]float64)
	}
	k.over[mic.Pair{Disease: k.lo + mic.DiseaseID(j), Medicine: med}] += q
}

// collect returns the month's touched pairs with their sums.
func (k *reproKernel) collect(span int) []pairValue {
	n := len(k.over)
	for _, t := range k.touched {
		if t {
			n++
		}
	}
	out := make([]pairValue, 0, n)
	for i := 0; i < span; i++ {
		d := k.lo + mic.DiseaseID(i)
		for p := k.rowStart[i]; p < k.rowStart[i+1]; p++ {
			if k.touched[p] {
				out = append(out, pairValue{pair: mic.Pair{Disease: d, Medicine: k.ents[p].med}, v: k.acc[p]})
			}
		}
	}
	for pair, v := range k.over {
		out = append(out, pairValue{pair: pair, v: v})
	}
	return out
}

// resize returns s with length n, reusing its backing array when it fits.
// A new array gets a quarter more capacity than asked, so scratch reused
// over months that grow a little at a time is reallocated only now and then.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
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
		series := s.Pairs[pair]
		ds, ok := s.diseaseSeries[pair.Disease]
		if !ok {
			ds = make([]float64, s.T)
			s.diseaseSeries[pair.Disease] = ds
		}
		ms, ok := s.medicineSeries[pair.Medicine]
		if !ok {
			ms = make([]float64, s.T)
			s.medicineSeries[pair.Medicine] = ms
		}
		for t, v := range series {
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
