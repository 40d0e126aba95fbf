package medmodel

import (
	"sort"

	"mictrend/internal/eval"
	"mictrend/internal/mic"
)

// Perplexity evaluates a predictor on held-out medicines (Eq. 11): test[i]
// holds the medicines withheld from month.Records[i]; the probability of
// each is scored in the context of the (training-side) record.
func Perplexity(p Predictor, month *mic.Monthly, test [][]mic.MedicineID) (float64, error) {
	var acc eval.PerplexityAccumulator
	for i := range month.Records {
		r := &month.Records[i]
		for _, med := range test[i] {
			acc.Add(p.ProbMedicine(r, med))
		}
	}
	return acc.Perplexity()
}

// RankMedicines ranks medicines for a disease by the total estimated
// prescription count Σ_t x_dmt over a set of monthly rankers (§VIII-A2),
// most prescribed first. Scores are the reproduced counts, so the ranking is
// exactly the one the paper evaluates with AP@10/NDCG@10.
func RankMedicines(sets []*SeriesSet, d mic.DiseaseID) []mic.MedicineID {
	totals := make(map[mic.MedicineID]float64)
	for _, s := range sets {
		for pair, series := range s.Pairs {
			if pair.Disease != d {
				continue
			}
			for _, v := range series {
				totals[pair.Medicine] += v
			}
		}
	}
	meds := make([]mic.MedicineID, 0, len(totals))
	for m := range totals {
		meds = append(meds, m)
	}
	sort.Slice(meds, func(a, b int) bool {
		ta, tb := totals[meds[a]], totals[meds[b]]
		if ta != tb {
			return ta > tb
		}
		return meds[a] < meds[b]
	})
	return meds
}
