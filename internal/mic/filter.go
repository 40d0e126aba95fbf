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

// FilterMonthly returns a copy of month with rare diseases and medicines
// removed according to opts. Records left with no diseases or no medicines
// are dropped entirely (they carry no information for link prediction).
//
// The kept entries of all records share one disease slab and one medicine
// slab per month; each record holds a full slice expression of its range
// (cap = len), so appending to one record's bag copies instead of
// overwriting its neighbour's.
func FilterMonthly(month *Monthly, opts FilterOptions) *Monthly {
	diseaseFreq, medFreq, nDiseases, nMeds := monthCounts(month)
	out := &Monthly{Month: month.Month}
	// Both slabs are sized to every entry of the month, so the appends below
	// never reallocate and the records' sub-slices stay on one array.
	diseases := make([]DiseaseCount, 0, nDiseases)
	meds := make([]MedicineID, 0, nMeds)
	records := make([]Record, 0, len(month.Records))
	for i := range month.Records {
		r := &month.Records[i]
		d0, m0 := len(diseases), len(meds)
		for _, dc := range r.Diseases {
			if diseaseFreq.at(int32(dc.Disease)) >= opts.MinMonthlyFreq {
				diseases = append(diseases, dc)
			}
		}
		for _, med := range r.Medicines {
			if medFreq.at(int32(med)) >= opts.MinMonthlyFreq {
				meds = append(meds, med)
			}
		}
		d1, m1 := len(diseases), len(meds)
		if d1 == d0 || m1 == m0 {
			// Dropped: roll the slabs back over its entries.
			diseases, meds = diseases[:d0], meds[:m0]
			continue
		}
		records = append(records, Record{
			Hospital: r.Hospital, Patient: r.Patient,
			Diseases: diseases[d0:d1:d1], Medicines: meds[m0:m1:m1],
		})
	}
	if len(records) > 0 {
		out.Records = records
	}
	return out
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
// MedicineFrequencies) in tables indexed by id, plus its disease-entry and
// medicine-entry totals. The tables span the ids the month uses, which for a
// validated dataset is at most its vocabularies.
func monthCounts(month *Monthly) (diseases, meds idCounts, nDiseases, nMeds int) {
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
		nDiseases += len(r.Diseases)
		nMeds += len(r.Medicines)
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
	return diseases, meds, nDiseases, nMeds
}

// FilterDataset applies FilterMonthly to every month, sharing the original
// vocabularies and hospital table.
func FilterDataset(d *Dataset, opts FilterOptions) *Dataset {
	out := &Dataset{Diseases: d.Diseases, Medicines: d.Medicines, Hospitals: d.Hospitals}
	for _, m := range d.Months {
		out.Months = append(out.Months, FilterMonthly(m, opts))
	}
	return out
}
