package medmodel

import "mictrend/internal/mic"

// Cooccurrence is the paper's main baseline (Eq. 10): φ_dm estimated from
// raw disease–medicine cooccurrence counts, with the same θ-weighted mixture
// prediction as the proposed model. Its weakness — frequent medicines leak
// probability onto every disease they merely share records with (paper
// Fig. 2a) — is what the latent-variable model fixes.
type Cooccurrence struct {
	Phi map[mic.DiseaseID]map[mic.MedicineID]float64
	M   int
}

// FitCooccurrence estimates the baseline for one month.
func FitCooccurrence(month *mic.Monthly, vocabMedicines int) (*Cooccurrence, error) {
	phi, err := cooccurrence(month)
	if err != nil {
		return nil, err
	}
	return &Cooccurrence{Phi: phi, M: vocabMedicines}, nil
}

// Name implements Predictor.
func (c *Cooccurrence) Name() string { return "Cooccurrence" }

// ProbMedicine returns the θ-weighted mixture probability under the
// cooccurrence φ.
func (c *Cooccurrence) ProbMedicine(r *mic.Record, med mic.MedicineID) float64 {
	var p float64
	for d, th := range Theta(r) {
		if row, ok := c.Phi[d]; ok {
			p += th * row[med]
		}
	}
	return smooth(p, c.M)
}

// PhiRow returns the cooccurrence φ_d.
func (c *Cooccurrence) PhiRow(d mic.DiseaseID) map[mic.MedicineID]float64 { return c.Phi[d] }

// Unigram is the paper's weaker baseline: a record-independent medicine
// frequency model (Song & Croft style language model).
type Unigram struct {
	Prob map[mic.MedicineID]float64
	M    int
}

// FitUnigram estimates medicine frequencies for one month.
func FitUnigram(month *mic.Monthly, vocabMedicines int) (*Unigram, error) {
	if _, err := usableRecords(month); err != nil {
		return nil, err
	}
	freq := month.MedicineFrequencies()
	var total float64
	for _, f := range freq {
		total += float64(f)
	}
	prob := make(map[mic.MedicineID]float64, len(freq))
	for m, f := range freq {
		prob[m] = float64(f) / total
	}
	return &Unigram{Prob: prob, M: vocabMedicines}, nil
}

// Name implements Predictor.
func (u *Unigram) Name() string { return "Unigram" }

// ProbMedicine ignores the record context entirely.
func (u *Unigram) ProbMedicine(_ *mic.Record, med mic.MedicineID) float64 {
	return smooth(u.Prob[med], u.M)
}
