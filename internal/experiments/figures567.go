package experiments

import (
	"fmt"
	"io"

	"mictrend/internal/changepoint"
	"mictrend/internal/mic"
	"mictrend/internal/micgen"
	"mictrend/internal/report"
	"mictrend/internal/ssm"
)

// Figure5Result reproduces Fig. 5: the AIC of the intervention model over
// every candidate change point of a series with a true structural break,
// showing the valley shape around the true break that justifies the binary
// search.
type Figure5Result struct {
	SeriesLabel string
	Series      []float64
	// AIC[t] is the model AIC with the change point at month t.
	AIC []float64
	// NoChangeAIC is the intervention-free model's score.
	NoChangeAIC float64
	// TrueMonth is the generator-injected event month.
	TrueMonth int
	// BestMonth minimizes AIC.
	BestMonth int
}

// RunFigure5 reproduces the paper's Figure 5 on the authorized generic's
// series, whose mid-window release month is known from the generator (the
// paper uses a series with a change in September 2013; a mid-window break
// gives the cleanest valley).
func RunFigure5(env *Env) (*Figure5Result, error) {
	proposed, _, err := env.Series()
	if err != nil {
		return nil, err
	}
	med, err := env.MedicineID(micgen.MedicineGeneric3)
	if err != nil {
		return nil, err
	}
	series := proposed.Medicine(med)
	if series == nil {
		return nil, fmt.Errorf("experiments: authorized generic series missing")
	}
	// The sensitivity curve uses the non-seasonal model (the paper's example
	// series carries no seasonal signal; a 12-state seasonal block on a
	// short window only blurs the valley) and scans the admissible candidate
	// range (a λ at the very tail is unidentified — see
	// changepoint.MinActiveObservations).
	maxCP := len(series) - changepoint.MinActiveObservations
	res := &Figure5Result{
		SeriesLabel: "anti-platelet authorized generic",
		Series:      series,
		AIC:         make([]float64, maxCP+1),
		TrueMonth:   micgen.GenericReleaseMonth,
	}
	best := 0
	scratch := new(ssm.Scratch) // one scratch across the whole valley scan
	for cp := 0; cp <= maxCP; cp++ {
		aic, _, err := ssm.AICAtOptions(series, ssm.Config{ChangePoint: cp}, scratch, ssm.FitOptions{})
		if err != nil {
			return nil, err
		}
		res.AIC[cp] = aic
		if aic < res.AIC[best] {
			best = cp
		}
	}
	res.BestMonth = best
	if res.NoChangeAIC, _, err = ssm.AICAtOptions(series, ssm.Config{ChangePoint: ssm.NoChangePoint}, scratch, ssm.FitOptions{}); err != nil {
		return nil, err
	}
	return res, nil
}

// Render plots the series and the AIC valley.
func (r *Figure5Result) Render(w io.Writer) {
	a := &report.LinePlot{Title: fmt.Sprintf("Figure 5a: %s (true change month %d)", r.SeriesLabel, r.TrueMonth)}
	a.Add("series", r.Series)
	a.Render(w)
	fmt.Fprintln(w)
	b := &report.LinePlot{Title: "Figure 5b: AIC by candidate change point"}
	b.Add("AIC", r.AIC)
	b.Render(w)
	fmt.Fprintf(w, "  best candidate month = %d, no-change AIC = %s\n", r.BestMonth, report.FormatFloat(r.NoChangeAIC))
}

// CaseStudy is one fitted series of Figures 6–7: the original series, the
// smoothed fit, the decomposed components, and related comparison series.
type CaseStudy struct {
	Title       string
	Series      []float64
	Fitted      []float64
	Decomp      *ssm.Decomposition
	ChangePoint int // ssm.NoChangePoint when none detected
	Related     []NamedSeries
}

// Figure6Result reproduces Fig. 6: fitting results for four disease/medicine
// case studies (influenza seasonality+outlier, multi-peak diarrhea, a new
// medicine's release, and a generic-release decline).
type Figure6Result struct {
	Cases []CaseStudy
}

// Figure7Result reproduces Fig. 7: prescription-level case studies (a new
// indication and a diagnostics substitution with opposite trends).
type Figure7Result struct {
	Cases []CaseStudy
}

// buildCase fits the full model with exact change point search and
// decomposes it.
func buildCase(title string, series []float64, related []NamedSeries) (CaseStudy, error) {
	cs := CaseStudy{Title: title, Series: series, Related: related, ChangePoint: ssm.NoChangePoint}
	det, err := changepoint.DetectExact(series, true)
	if err != nil {
		return cs, err
	}
	cs.ChangePoint = det.ChangePoint
	fit, err := ssm.FitConfig(series, ssm.Config{Seasonal: true, ChangePoint: det.ChangePoint})
	if err != nil {
		return cs, err
	}
	d, err := fit.Decompose()
	if err != nil {
		return cs, err
	}
	cs.Decomp = d
	cs.Fitted = d.Fitted
	return cs, nil
}

// RunFigure6 reproduces the paper's Figure 6.
func RunFigure6(env *Env) (*Figure6Result, error) {
	proposed, _, err := env.Series()
	if err != nil {
		return nil, err
	}
	dSeries := func(code string) ([]float64, error) {
		id, err := env.DiseaseID(code)
		if err != nil {
			return nil, err
		}
		v := proposed.Disease(id)
		if v == nil {
			return nil, fmt.Errorf("experiments: no series for disease %s", code)
		}
		return v, nil
	}
	mSeries := func(code string) ([]float64, error) {
		id, err := env.MedicineID(code)
		if err != nil {
			return nil, err
		}
		v := proposed.Medicine(id)
		if v == nil {
			return nil, fmt.Errorf("experiments: no series for medicine %s", code)
		}
		return v, nil
	}

	res := &Figure6Result{}
	flu, err := dSeries(micgen.DiseaseInfluenza)
	if err != nil {
		return nil, err
	}
	cs, err := buildCase("Figure 6a: influenza (seasonality + outlier)", flu, nil)
	if err != nil {
		return nil, err
	}
	res.Cases = append(res.Cases, cs)

	diarrhea, err := dSeries(micgen.DiseaseDiarrhea)
	if err != nil {
		return nil, err
	}
	cs, err = buildCase("Figure 6b: diarrhea (multi-peak seasonality)", diarrhea, nil)
	if err != nil {
		return nil, err
	}
	res.Cases = append(res.Cases, cs)

	newOsteo, err := mSeries(micgen.MedicineNewOsteo)
	if err != nil {
		return nil, err
	}
	oldOsteo, err := mSeries(micgen.MedicineOldOsteo)
	if err != nil {
		return nil, err
	}
	cs, err = buildCase(
		fmt.Sprintf("Figure 6c: new osteoporosis medicine (released month %d)", micgen.NewOsteoReleaseMonth),
		newOsteo, []NamedSeries{{Label: "established competitor", Values: oldOsteo}})
	if err != nil {
		return nil, err
	}
	res.Cases = append(res.Cases, cs)

	orig, err := mSeries(micgen.MedicineAntiplOrig)
	if err != nil {
		return nil, err
	}
	var related []NamedSeries
	for _, code := range []string{micgen.MedicineGeneric1, micgen.MedicineGeneric2, micgen.MedicineGeneric3} {
		v, err := mSeries(code)
		if err != nil {
			continue // generic may be filtered out at tiny scales
		}
		related = append(related, NamedSeries{Label: code, Values: v})
	}
	cs, err = buildCase(
		fmt.Sprintf("Figure 6d: anti-platelet original (generics released month %d)", micgen.GenericReleaseMonth),
		orig, related)
	if err != nil {
		return nil, err
	}
	res.Cases = append(res.Cases, cs)
	return res, nil
}

// RunFigure7 reproduces the paper's Figure 7.
func RunFigure7(env *Env) (*Figure7Result, error) {
	proposed, _, err := env.Series()
	if err != nil {
		return nil, err
	}
	pair := func(dCode, mCode string) ([]float64, error) {
		d, err := env.DiseaseID(dCode)
		if err != nil {
			return nil, err
		}
		m, err := env.MedicineID(mCode)
		if err != nil {
			return nil, err
		}
		v := proposed.Pair(mic.Pair{Disease: d, Medicine: m})
		if v == nil {
			return nil, fmt.Errorf("experiments: no series for pair (%s, %s)", dCode, mCode)
		}
		return v, nil
	}
	res := &Figure7Result{}

	lewy, err := pair(micgen.DiseaseLewyBody, micgen.MedicineLewyDrug)
	if err != nil {
		return nil, err
	}
	parkinson, err := pair(micgen.DiseaseParkinson, micgen.MedicineLewyDrug)
	if err != nil {
		return nil, err
	}
	cs, err := buildCase(
		fmt.Sprintf("Figure 7a: new indication for Lewy body dementia (month %d)", micgen.LewyExpansionMonth),
		lewy, []NamedSeries{{Label: "Parkinson's (original indication)", Values: parkinson}})
	if err != nil {
		return nil, err
	}
	res.Cases = append(res.Cases, cs)

	oral, err := pair(micgen.DiseaseOralFeeding, micgen.MedicineInfusion)
	if err != nil {
		return nil, err
	}
	dehy, err := pair(micgen.DiseaseDehydration, micgen.MedicineInfusion)
	if err != nil {
		return nil, err
	}
	cs, err = buildCase(
		fmt.Sprintf("Figure 7b: diagnostics substitution (shift month %d)", micgen.DiagShiftMonth),
		oral, []NamedSeries{{Label: "dehydration (related1, opposite trend)", Values: dehy}})
	if err != nil {
		return nil, err
	}
	res.Cases = append(res.Cases, cs)
	return res, nil
}

func renderCases(w io.Writer, cases []CaseStudy) {
	for _, cs := range cases {
		top := &report.LinePlot{Title: cs.Title}
		top.Add("original", cs.Series)
		top.Add("fitted", cs.Fitted)
		top.Render(w)
		if cs.Decomp != nil {
			mid := &report.LinePlot{Title: "  components"}
			mid.Add("level", cs.Decomp.Level)
			mid.Add("seasonal", cs.Decomp.Seasonal)
			mid.Add("intervention", cs.Decomp.Intervention)
			mid.Render(w)
		}
		if len(cs.Related) > 0 {
			rel := &report.LinePlot{Title: "  related series"}
			for _, s := range cs.Related {
				rel.Add(s.Label, s.Values)
			}
			rel.Render(w)
		}
		if cs.ChangePoint != ssm.NoChangePoint {
			fmt.Fprintf(w, "  detected change point: month %d\n", cs.ChangePoint)
		} else {
			fmt.Fprintln(w, "  no change point detected")
		}
		fmt.Fprintln(w)
	}
}

// Render plots all Figure 6 case studies.
func (r *Figure6Result) Render(w io.Writer) { renderCases(w, r.Cases) }

// Render plots all Figure 7 case studies.
func (r *Figure7Result) Render(w io.Writer) { renderCases(w, r.Cases) }
