package medmodel

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"mictrend/internal/mic"
)

// randomMonth builds a random but valid month: nDiseases/nMeds vocabulary,
// records with 1–4 diseases and 1–5 medicines.
func randomMonth(rng *rand.Rand, records, nDiseases, nMeds int) *mic.Monthly {
	m := &mic.Monthly{Month: 0}
	for i := 0; i < records; i++ {
		r := mic.Record{}
		nd := 1 + rng.IntN(4)
		seen := map[mic.DiseaseID]bool{}
		for j := 0; j < nd; j++ {
			d := mic.DiseaseID(rng.IntN(nDiseases))
			if seen[d] {
				continue
			}
			seen[d] = true
			r.Diseases = append(r.Diseases, mic.DiseaseCount{Disease: d, Count: 1 + rng.IntN(3)})
		}
		nm := 1 + rng.IntN(5)
		for j := 0; j < nm; j++ {
			r.Medicines = append(r.Medicines, mic.MedicineID(rng.IntN(nMeds)))
		}
		m.Records = append(m.Records, r)
	}
	return m
}

// Property: on any random month, EM converges to a model whose φ rows are
// probability distributions and whose log-likelihood is at least the
// cooccurrence initialization's.
func TestEMInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 31))
		month := randomMonth(rng, 40, 6, 8)
		recs, err := usableRecords(month)
		if err != nil {
			return true // degenerate random month: nothing to check
		}
		initLL := logLikelihood(recs, cooccurrencePhi(recs))
		model, err := Fit(month, 8, FitOptions{MaxIter: 25})
		if err != nil {
			return false
		}
		if model.LogLik < initLL-1e-9 {
			return false
		}
		for _, row := range model.Phi {
			var sum float64
			for _, p := range row {
				if p < 0 {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: responsibilities always form a distribution over the record's
// diseases, for any medicine (seen or unseen).
func TestResponsibilityDistributionProperty(t *testing.T) {
	f := func(seed uint64, medRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 32))
		month := randomMonth(rng, 30, 5, 6)
		model, err := Fit(month, 6, FitOptions{MaxIter: 15})
		if err != nil {
			return false
		}
		r := &month.Records[rng.IntN(len(month.Records))]
		q := model.Responsibility(r, mic.MedicineID(medRaw%10))
		var sum float64
		for d, v := range q {
			if v < 0 || !r.HasDisease(d) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: reproduction conserves per-month medicine counts for any random
// corpus (Σ_d x_dmt = raw count of m in month t).
func TestReproduceConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 33))
		d := mic.NewDataset()
		for i := 0; i < 5; i++ {
			d.Diseases.Intern(string(rune('a' + i)))
		}
		for i := 0; i < 6; i++ {
			d.Medicines.Intern(string(rune('A' + i)))
		}
		d.AddHospital(mic.Hospital{Code: "H"})
		for t := 0; t < 3; t++ {
			m := randomMonth(rng, 25, 5, 6)
			m.Month = t
			d.Months = append(d.Months, m)
		}
		models, fails, err := FitAll(context.Background(), d, FitOptions{MaxIter: 10})
		if err != nil || len(fails) != 0 {
			return false
		}
		set, err := Reproduce(d, models)
		if err != nil {
			return false
		}
		for t, month := range d.Months {
			for med, f := range month.MedicineFrequencies() {
				series := set.Medicine(med)
				if series == nil {
					return false
				}
				if math.Abs(series[t]-float64(f)) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// logLikelihood computes the Φ part of Eq. 3 for the given records
// through the φ maps.
func logLikelihood(recs []*mic.Record, phi map[mic.DiseaseID]map[mic.MedicineID]float64) float64 {
	var ll float64
	for _, r := range recs {
		theta := Theta(r)
		for _, med := range r.Medicines {
			var p float64
			for d, th := range theta {
				if row, ok := phi[d]; ok {
					p += th * row[med]
				}
			}
			if p <= 0 {
				p = math.SmallestNonzeroFloat64
			}
			ll += math.Log(p)
		}
	}
	return ll
}
