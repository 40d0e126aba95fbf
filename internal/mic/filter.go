package mic

import "math"

// FilterOptions holds the frequency thresholds the paper applies in §VI
// before model fitting: diseases and medicines appearing fewer than
// MinMonthlyFreq times in a monthly dataset are dropped from that month.
type FilterOptions struct {
	// MinMonthlyFreq is the minimum within-month frequency for a disease or
	// medicine to be kept (the paper uses 5).
	MinMonthlyFreq int
}

// DefaultFilterOptions mirrors the paper: frequency < 5 within a month is
// dropped.
func DefaultFilterOptions() FilterOptions {
	return FilterOptions{MinMonthlyFreq: 5}
}

// FilterMonthly returns month with rare diseases and medicines removed
// according to opts. Records left with no diseases or no medicines are
// dropped entirely (they carry no information for link prediction).
//
// The result is a new Monthly, never the month pointer, and it is read-only:
// it may share memory with month. When the filter changes no record, its
// Records is month.Records capped at its length. Otherwise each record kept
// whole shares month's bags, and only the kept entries of the records the
// filter changes are copied: into one disease slab and one medicine slab
// sized to those records, each record holding a full slice expression of its
// range (cap = len), so appending to one record's bag copies instead of
// overwriting its neighbour's.
func FilterMonthly(month *Monthly, opts FilterOptions) *Monthly {
	f := monthFilter{min: opts.MinMonthlyFreq}
	f.diseases, f.meds = monthCounts(month)
	out := &Monthly{Month: month.Month}
	// One pass sizes the result: the records kept, and the kept entries of
	// the changed ones among them.
	var kept, whole, nDiseases, nMeds int
	for i := range month.Records {
		r := &month.Records[i]
		d, m := f.keptLens(r)
		switch {
		case d == 0 || m == 0:
		case d == len(r.Diseases) && m == len(r.Medicines):
			kept++
			whole++
		default:
			kept++
			nDiseases += d
			nMeds += m
		}
	}
	if kept == 0 {
		return out
	}
	if whole == len(month.Records) {
		out.Records = month.Records[:whole:whole]
		return out
	}
	records := make([]Record, 0, kept)
	// Both slabs are sized to the changed records' kept entries, so the
	// appends below never reallocate and the records' sub-slices stay on one
	// array.
	diseases := make([]DiseaseCount, 0, nDiseases)
	meds := make([]MedicineID, 0, nMeds)
	for i := range month.Records {
		r := &month.Records[i]
		d, m := f.keptLens(r)
		switch {
		case d == 0 || m == 0:
			continue
		case d == len(r.Diseases) && m == len(r.Medicines):
			records = append(records, Record{
				Hospital: r.Hospital, Patient: r.Patient,
				Diseases: r.Diseases[:d:d], Medicines: r.Medicines[:m:m],
			})
			continue
		}
		d0, m0 := len(diseases), len(meds)
		for _, dc := range r.Diseases {
			if f.diseases.at(int32(dc.Disease)) >= f.min {
				diseases = append(diseases, dc)
			}
		}
		for _, med := range r.Medicines {
			if f.meds.at(int32(med)) >= f.min {
				meds = append(meds, med)
			}
		}
		d1, m1 := len(diseases), len(meds)
		records = append(records, Record{
			Hospital: r.Hospital, Patient: r.Patient,
			Diseases: diseases[d0:d1:d1], Medicines: meds[m0:m1:m1],
		})
	}
	out.Records = records
	return out
}

// monthFilter holds one month's frequency tables and the threshold its
// entries are held to.
type monthFilter struct {
	diseases, meds idCounts
	min            int
}

// keptLens returns how many of r's disease and medicine entries the filter
// keeps.
func (f *monthFilter) keptLens(r *Record) (diseases, meds int) {
	for _, dc := range r.Diseases {
		if f.diseases.at(int32(dc.Disease)) >= f.min {
			diseases++
		}
	}
	for _, med := range r.Medicines {
		if f.meds.at(int32(med)) >= f.min {
			meds++
		}
	}
	return diseases, meds
}

// idCounts is a frequency table over the id span [lo, lo+len(n)).
type idCounts struct {
	lo int32
	n  []int
}

func (c idCounts) at(id int32) int { return c.n[int(id)-int(c.lo)] }

// newIDCounts returns a zeroed table spanning [lo, hi]; hi < lo is empty.
func newIDCounts(lo, hi int32) idCounts {
	if hi < lo {
		return idCounts{}
	}
	return idCounts{lo: lo, n: make([]int, int(hi)-int(lo)+1)}
}

// monthCounts returns the month's disease frequencies (diagnoses counting
// multiplicity, as DiseaseFrequencies) and medicine frequencies (as
// MedicineFrequencies) in tables indexed by id. The tables span the ids the
// month uses, which for a validated dataset is at most its vocabularies.
func monthCounts(month *Monthly) (diseases, meds idCounts) {
	dLo, dHi := int32(math.MaxInt32), int32(math.MinInt32)
	mLo, mHi := int32(math.MaxInt32), int32(math.MinInt32)
	for i := range month.Records {
		r := &month.Records[i]
		for _, dc := range r.Diseases {
			dLo, dHi = min(dLo, int32(dc.Disease)), max(dHi, int32(dc.Disease))
		}
		for _, med := range r.Medicines {
			mLo, mHi = min(mLo, int32(med)), max(mHi, int32(med))
		}
	}
	diseases, meds = newIDCounts(dLo, dHi), newIDCounts(mLo, mHi)
	for i := range month.Records {
		r := &month.Records[i]
		for _, dc := range r.Diseases {
			diseases.n[int(dc.Disease)-int(dLo)] += dc.Count
		}
		for _, med := range r.Medicines {
			meds.n[int(med)-int(mLo)]++
		}
	}
	return diseases, meds
}

// FilterDataset applies FilterMonthly to every month, sharing the original
// vocabularies and hospital table. Like each filtered month, the result is
// read-only and may share memory with d.
func FilterDataset(d *Dataset, opts FilterOptions) *Dataset {
	out := &Dataset{Diseases: d.Diseases, Medicines: d.Medicines, Hospitals: d.Hospitals}
	for _, m := range d.Months {
		out.Months = append(out.Months, FilterMonthly(m, opts))
	}
	return out
}
