// Package medmodel implements the paper's primary contribution (§IV): a
// probabilistic medication model with latent variables that simulates how
// physicians prescribe medicines for the diseases they diagnose, recovering
// the disease→medicine prescription links that MIC records omit.
//
// Per monthly dataset, the model is
//
//	d_rn ~ Multinomial(η)           disease diagnosis           (Eq. 4)
//	z_rl ~ Multinomial(θ_r)         medication target, θ_rd = N_rd/N_r (Eq. 2)
//	m_rl ~ Multinomial(φ_{z_rl})    medicine prescription       (Eq. 5–6, EM)
//
// alongside the paper's two baselines: the medicine Unigram model and the
// Cooccurrence model (Eq. 10). Fitted models reproduce the prescription time
// series of Eqs. 7–8, the input of the trend change detector.
package medmodel

import (
	"errors"
	"fmt"

	"mictrend/internal/mic"
)

// UniformSmoothing is the weight of the uniform background distribution
// mixed into every predictive probability so that held-out medicines unseen
// by a model keep finite perplexity. Applied identically to the proposed
// model and both baselines (the paper does not specify its handling).
const UniformSmoothing = 1e-6

// ErrEmptyMonth is returned when a model is fitted to a month with no usable
// records.
var ErrEmptyMonth = errors.New("medmodel: month has no records with both diseases and medicines")

// Predictor scores the probability of a medicine being prescribed in the
// context of a record. Implemented by Model, Cooccurrence, and Unigram.
type Predictor interface {
	// ProbMedicine returns P(m | record context), smoothed to be positive.
	ProbMedicine(r *mic.Record, m mic.MedicineID) float64
	// Name identifies the predictor in experiment reports.
	Name() string
}

// Model is the fitted latent-variable medication model for one month.
type Model struct {
	// Eta is the disease distribution η (Eq. 4), indexed by DiseaseID.
	// Diseases absent from the month have probability zero.
	Eta map[mic.DiseaseID]float64
	// Phi[d][m] is the medicine distribution φ_d (Eq. 5). Only diseases and
	// medicines cooccurring somewhere in the month have entries.
	Phi map[mic.DiseaseID]map[mic.MedicineID]float64
	// M is the number of medicines in the vocabulary (for smoothing).
	M int
	// LogLik is the final training log-likelihood (Eq. 3's Φ part).
	LogLik float64
	// Iterations is the number of EM iterations performed.
	Iterations int
	// LogLikTrace is the per-iteration training log-likelihood, recorded only
	// when FitOptions.TraceConvergence is set (nil otherwise). Its last entry
	// equals LogLik and its length equals Iterations.
	LogLikTrace []float64
}

// Name implements Predictor.
func (m *Model) Name() string { return "Proposed" }

// Theta returns θ_rd = N_rd/N_r (Eq. 2) for every disease in the record.
func Theta(r *mic.Record) map[mic.DiseaseID]float64 {
	n := r.NumDiseaseMentions()
	out := make(map[mic.DiseaseID]float64, len(r.Diseases))
	if n == 0 {
		return out
	}
	for _, dc := range r.Diseases {
		out[dc.Disease] += float64(dc.Count) / float64(n)
	}
	return out
}

// ProbMedicine returns P(m | r) = Σ_d θ_rd·φ_dm, mixed with the uniform
// background.
func (m *Model) ProbMedicine(r *mic.Record, med mic.MedicineID) float64 {
	var p float64
	theta := Theta(r)
	for d, th := range theta {
		if row, ok := m.Phi[d]; ok {
			p += th * row[med]
		}
	}
	return smooth(p, m.M)
}

// PhiRow returns φ_d, or nil when the disease never cooccurred with any
// medicine in the month.
func (m *Model) PhiRow(d mic.DiseaseID) map[mic.MedicineID]float64 { return m.Phi[d] }

// Responsibility returns q_rld for each disease of the record given medicine
// m (Eq. 6). The result sums to 1 unless the medicine has zero probability
// under every disease of the record, in which case responsibilities fall
// back to θ (the model is indifferent). The normalizer is accumulated in the
// record's disease order — not map iteration order — so repeated calls are
// bit-identical, which the pipeline's reproducibility guarantees rely on.
func (m *Model) Responsibility(r *mic.Record, med mic.MedicineID) map[mic.DiseaseID]float64 {
	theta := Theta(r)
	out := make(map[mic.DiseaseID]float64, len(theta))
	var total float64
	for _, dc := range r.Diseases {
		d := dc.Disease
		if _, seen := out[d]; seen {
			continue
		}
		var phi float64
		if row, ok := m.Phi[d]; ok {
			phi = row[med]
		}
		w := theta[d] * phi
		out[d] = w
		total += w
	}
	if total <= 0 {
		return theta
	}
	for d := range out {
		out[d] /= total
	}
	return out
}

// smooth mixes a model probability with the uniform background over M
// medicines.
func smooth(p float64, m int) float64 {
	if m <= 0 {
		m = 1
	}
	return (1-UniformSmoothing)*p + UniformSmoothing/float64(m)
}

// usable reports whether a record takes part in fitting: it needs both a
// disease and a medicine.
func usable(r *mic.Record) bool { return len(r.Diseases) > 0 && len(r.Medicines) > 0 }

// usableRecords returns the month's usable records, or ErrEmptyMonth when it
// has none.
func usableRecords(month *mic.Monthly) ([]*mic.Record, error) {
	var recs []*mic.Record
	for i := range month.Records {
		if r := &month.Records[i]; usable(r) {
			recs = append(recs, r)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%w (month %d)", ErrEmptyMonth, month.Month)
	}
	return recs, nil
}

// EstimateEta computes η (Eq. 4): disease frequencies normalized across the
// month.
func EstimateEta(month *mic.Monthly) map[mic.DiseaseID]float64 {
	freq := month.DiseaseFrequencies()
	var total float64
	for _, f := range freq {
		total += float64(f)
	}
	out := make(map[mic.DiseaseID]float64, len(freq))
	if total == 0 {
		return out
	}
	for d, f := range freq {
		out[d] = float64(f) / total
	}
	return out
}
