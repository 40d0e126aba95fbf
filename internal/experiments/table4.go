package experiments

import (
	"io"
	"sync"

	"mictrend/internal/arima"
	"mictrend/internal/changepoint"
	"mictrend/internal/report"
	"mictrend/internal/ssm"
	"mictrend/internal/stat"
	"mictrend/internal/trend"
)

// TableIVModel enumerates the ablation rows of Table IV.
type TableIVModel int

// Ablation rows.
const (
	ModelLL TableIVModel = iota
	ModelLLS
	ModelLLI
	ModelLLSI
	ModelARIMA
	numTableIVModels
)

// String names the row like the paper.
func (m TableIVModel) String() string {
	switch m {
	case ModelLL:
		return "Local Level (LL)"
	case ModelLLS:
		return "LL + Seasonality (S)"
	case ModelLLI:
		return "LL + Intervention (I)"
	case ModelLLSI:
		return "LL + S + I (proposed)"
	case ModelARIMA:
		return "ARIMA"
	default:
		return "?"
	}
}

// TableIVResult reproduces Table IV: mean (SD) AIC of the model ablation on
// disease, medicine, and prescription series, plus the full model's change
// point detection rates.
type TableIVResult struct {
	// AICs[model][kind] collects per-series AIC values.
	AICs [numTableIVModels][3][]float64
	// DetectionRate[kind] is the fraction of series where the full model
	// found a change point (paper: 12% diseases, 28% medicines, 10%
	// prescriptions).
	DetectionRate [3]float64
	// FullVsSeasonalTest compares LL+S+I against LL+S per kind.
	FullVsSeasonalTest [3]stat.TTestResult
}

// RunTableIV reproduces the paper's Table IV on the sampled series.
func RunTableIV(env *Env) (*TableIVResult, error) {
	series, err := env.SampleSeries()
	if err != nil {
		return nil, err
	}
	type perSeries struct {
		aics     [numTableIVModels]float64
		detected bool
	}
	results := make([]perSeries, len(series))
	var mu sync.Mutex
	fitSeries := func(i int) error {
		y := series[i].Values
		var out perSeries
		ll, err := ssm.FitConfig(y, ssm.Config{ChangePoint: ssm.NoChangePoint})
		if err != nil {
			return err
		}
		out.aics[ModelLL] = ll.AIC
		lls, err := ssm.FitConfig(y, ssm.Config{Seasonal: true, ChangePoint: ssm.NoChangePoint})
		if err != nil {
			return err
		}
		out.aics[ModelLLS] = lls.AIC
		lli, err := changepoint.DetectExact(y, false)
		if err != nil {
			return err
		}
		out.aics[ModelLLI] = lli.AIC
		llsi, err := changepoint.DetectExact(y, true)
		if err != nil {
			return err
		}
		out.aics[ModelLLSI] = llsi.AIC
		out.detected = llsi.Detected()
		ar, err := arima.Select(y, arima.SelectOptions{})
		if err != nil {
			return err
		}
		out.aics[ModelARIMA] = ar.AIC
		mu.Lock()
		results[i] = out
		mu.Unlock()
		return nil
	}
	err = parallelFor(len(series), env.Config.Workers, fitSeries)
	if err != nil {
		return nil, err
	}

	res := &TableIVResult{}
	detected := [3]int{}
	counts := [3]int{}
	for i, s := range series {
		k := int(s.Kind)
		for m := TableIVModel(0); m < numTableIVModels; m++ {
			res.AICs[m][k] = append(res.AICs[m][k], results[i].aics[m])
		}
		counts[k]++
		if results[i].detected {
			detected[k]++
		}
	}
	for k := 0; k < 3; k++ {
		if counts[k] > 0 {
			res.DetectionRate[k] = float64(detected[k]) / float64(counts[k])
		}
		if len(res.AICs[ModelLLSI][k]) >= 2 {
			tt, err := stat.PairedTTest(res.AICs[ModelLLSI][k], res.AICs[ModelLLS][k])
			if err == nil {
				res.FullVsSeasonalTest[k] = tt
			}
		}
	}
	return res, nil
}

// Render prints the ablation table.
func (r *TableIVResult) Render(w io.Writer) {
	t := &report.Table{
		Title:   "Table IV: fitting quality (AIC, mean (SD)) of model variants",
		Headers: []string{"model", "disease", "medicine", "prescription"},
	}
	cell := func(xs []float64) string {
		if len(xs) == 0 {
			return "-"
		}
		return report.FormatFloat(stat.Mean(xs)) + " (" + report.FormatFloat(stat.StdDev(xs)) + ")"
	}
	for m := TableIVModel(0); m < numTableIVModels; m++ {
		t.AddRow(m.String(), cell(r.AICs[m][0]), cell(r.AICs[m][1]), cell(r.AICs[m][2]))
	}
	t.Render(w)
	for k := 0; k < 3; k++ {
		kind := trend.SeriesKind(k)
		tt := r.FullVsSeasonalTest[k]
		io.WriteString(w, "  "+kind.String()+": change points in "+
			report.FormatFloat(100*r.DetectionRate[k])+"% of series; LL+S+I vs LL+S t("+
			report.FormatFloat(tt.DF)+") = "+report.FormatFloat(tt.T)+", p = "+report.FormatFloat(tt.P)+"\n")
	}
}
