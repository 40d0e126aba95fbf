package medmodel

import (
	"math"
	"sort"

	"mictrend/internal/mic"
)

// The paper's §IX names temporal evolution of the distributions (Dynamic
// Topic Model / Topic Tracking Model style) as the most promising extension
// of the medication model. FitSmoothed implements it as maximum a posteriori
// EM: each month's φ_d carries a Dirichlet prior centered at the previous
// month's fitted distribution with concentration PriorWeight, which
// stabilizes sparse months without constraining months with plenty of data.

// thetaEntry is one (disease, θ_rd) pair of a record's topic mixture held in
// ascending-disease order, so every float accumulation over a record's θ runs
// in a fixed order. Iterating the Theta map directly would sum in Go's
// randomized map order, and float addition is not associative — two fits of
// the same month could then differ in the last bits, which breaks the
// byte-identical checkpoint-resume contract.
type thetaEntry struct {
	d  mic.DiseaseID
	th float64
}

func sortedTheta(r *mic.Record) []thetaEntry {
	theta := Theta(r)
	out := make([]thetaEntry, 0, len(theta))
	for d, th := range theta {
		out = append(out, thetaEntry{d: d, th: th})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].d < out[b].d })
	return out
}

// sortedRowKeys returns a φ row's medicine ids in ascending order.
func sortedRowKeys(row map[mic.MedicineID]float64) []mic.MedicineID {
	meds := make([]mic.MedicineID, 0, len(row))
	for med := range row {
		meds = append(meds, med)
	}
	sort.Slice(meds, func(a, b int) bool { return meds[a] < meds[b] })
	return meds
}

// FitSmoothed fits one month with a Dirichlet prior centered at prior's φ.
// priorWeight is the pseudo-count mass added per disease (0 disables the
// prior and reduces to Fit). The prior also extends the support: a pair
// absent from this month's cooccurrences but present in the prior keeps
// probability mass, so rare pairs do not flicker in and out month to month.
//
// Results are deterministic: every accumulation runs in sorted key order, so
// refitting the same month against the same prior is bit-identical — the
// property the crash-recovery tests assert for the smoothed chain.
func FitSmoothed(month *mic.Monthly, vocabMedicines int, opts FitOptions, prior *Model, priorWeight float64) (*Model, error) {
	if prior == nil || priorWeight <= 0 {
		return Fit(month, vocabMedicines, opts)
	}
	opts = opts.withDefaults()
	// Initialize from this month's cooccurrences blended with the prior.
	phi, err := cooccurrence(month)
	if err != nil {
		return nil, err
	}
	blendPrior(phi, prior.Phi, priorWeight)
	recs, _ := usableRecords(month) // cannot fail: cooccurrence found usable records

	// Fix the iteration orders once: per-record θ ascending by disease, and
	// the prior's rows and entries ascending by id.
	thetas := make([][]thetaEntry, len(recs))
	for i, r := range recs {
		thetas[i] = sortedTheta(r)
	}
	priorDiseases := make([]mic.DiseaseID, 0, len(prior.Phi))
	for d := range prior.Phi {
		priorDiseases = append(priorDiseases, d)
	}
	sort.Slice(priorDiseases, func(a, b int) bool { return priorDiseases[a] < priorDiseases[b] })
	priorMeds := make([][]mic.MedicineID, len(priorDiseases))
	for i, d := range priorDiseases {
		priorMeds[i] = sortedRowKeys(prior.Phi[d])
	}

	model := &Model{
		Eta: EstimateEta(month),
		Phi: phi,
		M:   vocabMedicines,
	}
	prevLL := negInf()
	for iter := 0; iter < opts.MaxIter; iter++ {
		next := make(map[mic.DiseaseID]map[mic.MedicineID]float64, len(phi))
		rowSums := make(map[mic.DiseaseID]float64, len(phi))
		// E/M accumulation as in Fit…
		for ri, r := range recs {
			theta := thetas[ri]
			for _, med := range r.Medicines {
				var denom float64
				for _, e := range theta {
					if row, ok := phi[e.d]; ok {
						denom += e.th * row[med]
					}
				}
				if denom <= 0 {
					continue
				}
				for _, e := range theta {
					row, ok := phi[e.d]
					if !ok {
						continue
					}
					q := e.th * row[med] / denom
					if q == 0 {
						continue
					}
					nrow, ok := next[e.d]
					if !ok {
						nrow = make(map[mic.MedicineID]float64)
						next[e.d] = nrow
					}
					nrow[med] += q
					rowSums[e.d] += q
				}
			}
		}
		// …plus the MAP step: add priorWeight·φ_prev as pseudo-counts.
		for i, d := range priorDiseases {
			prow := prior.Phi[d]
			nrow, ok := next[d]
			if !ok {
				nrow = make(map[mic.MedicineID]float64)
				next[d] = nrow
			}
			for _, med := range priorMeds[i] {
				add := priorWeight * prow[med]
				nrow[med] += add
				rowSums[d] += add
			}
		}
		for d, nrow := range next {
			sum := rowSums[d]
			if sum <= 0 {
				delete(next, d)
				continue
			}
			for med := range nrow {
				nrow[med] /= sum
			}
		}
		phi = next
		model.Phi = phi
		model.Iterations = iter + 1

		ll := logLikelihoodSorted(recs, thetas, phi)
		model.LogLik = ll
		if opts.TraceConvergence {
			model.LogLikTrace = append(model.LogLikTrace, ll)
		}
		if prevLL != negInf() {
			denom := prevLL
			if denom < 0 {
				denom = -denom
			}
			if denom == 0 {
				denom = 1
			}
			if (ll-prevLL)/denom < opts.Tol {
				break
			}
		}
		prevLL = ll
	}
	return model, nil
}

// logLikelihoodSorted is logLikelihood with the per-record θ already fixed in
// sorted order, keeping the convergence checks (and thus the stopping
// iteration) deterministic.
func logLikelihoodSorted(recs []*mic.Record, thetas [][]thetaEntry, phi map[mic.DiseaseID]map[mic.MedicineID]float64) float64 {
	var ll float64
	for ri, r := range recs {
		theta := thetas[ri]
		for _, med := range r.Medicines {
			var p float64
			for _, e := range theta {
				if row, ok := phi[e.d]; ok {
					p += e.th * row[med]
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

// blendPrior mixes prior rows into phi so the EM support covers both. Both
// the pseudo-count additions and the renormalizing sum run in ascending key
// order so the blend is bit-deterministic.
func blendPrior(phi, prior map[mic.DiseaseID]map[mic.MedicineID]float64, weight float64) {
	// Normalize the blend as (counts-model): current rows are distributions;
	// treat the prior as weight pseudo-observations against 1 unit of the
	// cooccurrence distribution, then re-normalize.
	diseases := make([]mic.DiseaseID, 0, len(prior))
	for d := range prior {
		diseases = append(diseases, d)
	}
	sort.Slice(diseases, func(a, b int) bool { return diseases[a] < diseases[b] })
	for _, d := range diseases {
		prow := prior[d]
		row, ok := phi[d]
		if !ok {
			row = make(map[mic.MedicineID]float64)
			phi[d] = row
		}
		for _, med := range sortedRowKeys(prow) {
			row[med] += weight * prow[med]
		}
		var sum float64
		for _, med := range sortedRowKeys(row) {
			sum += row[med]
		}
		if sum > 0 {
			for med := range row {
				row[med] /= sum
			}
		}
	}
}

func negInf() float64 { return math.Inf(-1) }
