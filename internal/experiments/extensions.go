package experiments

import (
	"fmt"
	"io"

	"mictrend/internal/changepoint"
	"mictrend/internal/medmodel"
	"mictrend/internal/mic"
	"mictrend/internal/report"
	"mictrend/internal/stat"
	"mictrend/internal/trend"
)

// ExtensionsResult covers the two §IX future-work directions implemented
// beyond the paper: (1) multiple change points per series — does allowing a
// second intervention improve fitting quality, and (2) temporally smoothed
// EM — does chaining a Dirichlet prior across months improve held-out
// perplexity?
type ExtensionsResult struct {
	// Multi-change-point ablation on prescription series.
	SingleAIC, MultiAIC []float64
	MultiImproved       int // series where the greedy search added ≥2 breaks
	MultiTest           stat.TTestResult

	// Smoothed-EM ablation: per-month holdout perplexities.
	PerplexityPlain, PerplexitySmoothed []float64
	SmoothTest                          stat.TTestResult
	PriorWeight                         float64
}

// RunExtensions evaluates both extensions on the environment corpus.
func RunExtensions(env *Env) (*ExtensionsResult, error) {
	res := &ExtensionsResult{PriorWeight: 5}

	// --- multiple change points (paper §IX, limitation 1) ---
	all, err := env.SampleSeries()
	if err != nil {
		return nil, err
	}
	var prescriptions []LabeledSeries
	for _, s := range all {
		if s.Kind == trend.KindPrescription {
			prescriptions = append(prescriptions, s)
		}
	}
	type pairOut struct {
		single, multi float64
		improved      bool
	}
	outs := make([]pairOut, len(prescriptions))
	scanPair := func(i int) error {
		y := prescriptions[i].Values
		single, err := changepoint.DetectExact(y, false)
		if err != nil {
			return err
		}
		multi, err := changepoint.DetectMultiple(y, changepoint.MultiOptions{MaxChanges: 2})
		if err != nil {
			return err
		}
		outs[i] = pairOut{
			single:   single.AIC,
			multi:    multi.AIC,
			improved: len(multi.Interventions) >= 2,
		}
		return nil
	}
	err = parallelFor(len(prescriptions), env.Config.Workers, scanPair)
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		res.SingleAIC = append(res.SingleAIC, o.single)
		res.MultiAIC = append(res.MultiAIC, o.multi)
		if o.improved {
			res.MultiImproved++
		}
	}
	if len(res.SingleAIC) >= 2 {
		if res.MultiTest, err = stat.PairedTTest(res.MultiAIC, res.SingleAIC); err != nil {
			return nil, err
		}
	}

	// --- temporally smoothed EM (paper §IX, Dynamic Topic Model direction) ---
	vocabM := env.Filtered.Medicines.Len()
	type monthOut struct{ plain, smoothed float64 }
	monthOuts := make([]monthOut, env.Filtered.T())
	var prevSmoothed *medmodel.Model
	for i, month := range env.Filtered.Months {
		holdout := mic.SplitMedicines(month, env.Config.HoldoutTrainFraction, env.Config.Seed+1)
		plain, err := medmodel.Fit(holdout.Train, vocabM, env.Config.EM)
		if err != nil {
			return nil, err
		}
		smoothed, err := medmodel.FitSmoothed(holdout.Train, vocabM, env.Config.EM, prevSmoothed, res.PriorWeight)
		if err != nil {
			return nil, err
		}
		pplPlain, err := medmodel.Perplexity(plain, holdout.Train, holdout.Test)
		if err != nil {
			return nil, err
		}
		pplSmoothed, err := medmodel.Perplexity(smoothed, holdout.Train, holdout.Test)
		if err != nil {
			return nil, err
		}
		monthOuts[i] = monthOut{plain: pplPlain, smoothed: pplSmoothed}
		prevSmoothed = smoothed
	}
	for _, o := range monthOuts {
		res.PerplexityPlain = append(res.PerplexityPlain, o.plain)
		res.PerplexitySmoothed = append(res.PerplexitySmoothed, o.smoothed)
	}
	if len(res.PerplexityPlain) >= 2 {
		if res.SmoothTest, err = stat.PairedTTest(res.PerplexitySmoothed, res.PerplexityPlain); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Render prints both ablations.
func (r *ExtensionsResult) Render(w io.Writer) {
	t := &report.Table{
		Title:   "Extension 1: multiple change points (prescription series, AIC mean (SD))",
		Headers: []string{"model", "AIC"},
	}
	cell := func(xs []float64) string {
		if len(xs) == 0 {
			return "-"
		}
		return report.FormatFloat(stat.Mean(xs)) + " (" + report.FormatFloat(stat.StdDev(xs)) + ")"
	}
	t.AddRow("single change point (paper)", cell(r.SingleAIC))
	t.AddRow("up to two change points (§IX extension)", cell(r.MultiAIC))
	t.Render(w)
	fmt.Fprintf(w, "  %d/%d series accepted a second change point; paired t(%.0f) = %.3f, p = %.4g\n\n",
		r.MultiImproved, len(r.SingleAIC), r.MultiTest.DF, r.MultiTest.T, r.MultiTest.P)

	t2 := &report.Table{
		Title:   fmt.Sprintf("Extension 2: temporally smoothed EM (prior weight %.0f), holdout perplexity mean (SD)", r.PriorWeight),
		Headers: []string{"model", "perplexity"},
	}
	t2.AddRow("independent monthly EM (paper)", cell(r.PerplexityPlain))
	t2.AddRow("temporally smoothed EM (§IX extension)", cell(r.PerplexitySmoothed))
	t2.Render(w)
	fmt.Fprintf(w, "  paired t(%.0f) = %.3f, p = %.4g, d = %.3f\n",
		r.SmoothTest.DF, r.SmoothTest.T, r.SmoothTest.P, r.SmoothTest.CohensD)
}
