package mic

import (
	"math"
	"math/rand/v2"
	"sort"
)

// SplitByCity partitions every month's records by the city of the issuing
// hospital, returning one Dataset per city keyed by city name. Vocabularies
// and the hospital table are shared with the input. Used by the §VII-B
// geographical spread analysis.
func SplitByCity(d *Dataset) map[string]*Dataset {
	out := make(map[string]*Dataset)
	get := func(city string) *Dataset {
		ds, ok := out[city]
		if !ok {
			ds = &Dataset{Diseases: d.Diseases, Medicines: d.Medicines, Hospitals: d.Hospitals}
			for t := range d.Months {
				ds.Months = append(ds.Months, &Monthly{Month: t})
			}
			out[city] = ds
		}
		return ds
	}
	for t, m := range d.Months {
		for i := range m.Records {
			r := &m.Records[i]
			city := d.Hospitals[r.Hospital].City
			ds := get(city)
			ds.Months[t].Records = append(ds.Months[t].Records, *r)
		}
	}
	return out
}

// SplitByHospitalClass partitions every month's records by hospital size
// class (small/medium/large). Used by the §VII-C inter-hospital gap
// analysis.
func SplitByHospitalClass(d *Dataset) map[HospitalClass]*Dataset {
	out := make(map[HospitalClass]*Dataset, NumHospitalClasses)
	for c := SmallHospital; c <= LargeHospital; c++ {
		ds := &Dataset{Diseases: d.Diseases, Medicines: d.Medicines, Hospitals: d.Hospitals}
		for t := range d.Months {
			ds.Months = append(ds.Months, &Monthly{Month: t})
		}
		out[c] = ds
	}
	for t, m := range d.Months {
		for i := range m.Records {
			r := &m.Records[i]
			class := d.Hospitals[r.Hospital].Class()
			out[class].Months[t].Records = append(out[class].Months[t].Records, *r)
		}
	}
	return out
}

// Holdout is the result of a medicine train/test split of one month: Train
// keeps trainFraction of each record's medicines, Test holds the rest. The
// disease bags are identical on both sides; records whose medicine bag is
// too small to split contribute no test medicines, matching the paper's
// 90%/10% per-record sampling protocol (§VIII-A1).
type Holdout struct {
	Train *Monthly
	// Test[i] holds the held-out medicines of Train.Records[i].
	Test [][]MedicineID
}

// SplitMedicines splits each record's medicine bag into train/test portions.
// trainFraction must be in (0, 1]. The split is deterministic given seed.
func SplitMedicines(month *Monthly, trainFraction float64, seed uint64) Holdout {
	if trainFraction <= 0 || trainFraction > 1 {
		panic("mic: trainFraction must be in (0, 1]")
	}
	rng := rand.New(rand.NewPCG(seed, uint64(month.Month)+0x9e3779b97f4a7c15))
	out := Holdout{Train: &Monthly{Month: month.Month}}
	for i := range month.Records {
		r := &month.Records[i]
		nr := Record{Hospital: r.Hospital, Patient: r.Patient}
		nr.Diseases = append([]DiseaseCount(nil), r.Diseases...)
		l := len(r.Medicines)
		nTest := int(math.Round(float64(l) * (1 - trainFraction)))
		if nTest >= l {
			nTest = l - 1
		}
		if nTest < 0 {
			nTest = 0
		}
		perm := rng.Perm(l)
		testIdx := make(map[int]bool, nTest)
		for _, p := range perm[:nTest] {
			testIdx[p] = true
		}
		var test []MedicineID
		for j, med := range r.Medicines {
			if testIdx[j] {
				test = append(test, med)
			} else {
				nr.Medicines = append(nr.Medicines, med)
			}
		}
		out.Train.Records = append(out.Train.Records, nr)
		out.Test = append(out.Test, test)
	}
	return out
}

// TopDiseases returns the ids of the k diseases with the highest total
// diagnosis frequency across the whole dataset, most frequent first. Ties
// break on ascending id for determinism. Used to pick the "100 most frequent
// diseases" of the §VIII-A2 relevance experiment.
func TopDiseases(d *Dataset, k int) []DiseaseID {
	freq := make(map[DiseaseID]int)
	for _, m := range d.Months {
		for i := range m.Records {
			for _, dc := range m.Records[i].Diseases {
				freq[dc.Disease] += dc.Count
			}
		}
	}
	ids := make([]DiseaseID, 0, len(freq))
	for id := range freq {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		fa, fb := freq[ids[a]], freq[ids[b]]
		if fa != fb {
			return fa > fb
		}
		return ids[a] < ids[b]
	})
	if k < len(ids) {
		ids = ids[:k]
	}
	return ids
}
