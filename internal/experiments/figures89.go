package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"mictrend/internal/apps"
	"mictrend/internal/arima"
	"mictrend/internal/changepoint"
	"mictrend/internal/mic"
	"mictrend/internal/micgen"
	"mictrend/internal/report"
	"mictrend/internal/ssm"
	"mictrend/internal/stat"
	"mictrend/internal/trend"
)

// Figure8Snapshot is the per-city medicine share map at one month.
type Figure8Snapshot struct {
	Month  int
	Label  string
	Cities apps.CityCounts
}

// Figure8Result reproduces Fig. 8: the geographical spread of the
// anti-platelet generics at one month before release, one month after, and
// one year after.
type Figure8Result struct {
	Medicines []string // codes, original first
	MedIDs    []mic.MedicineID
	Snapshots []Figure8Snapshot
	// Grid lays out city names by (row, col) from the generator catalog.
	Grid [][]string
}

// RunFigure8 reproduces the paper's Figure 8.
func RunFigure8(env *Env) (*Figure8Result, error) {
	codes := []string{micgen.MedicineAntiplOrig, micgen.MedicineGeneric1, micgen.MedicineGeneric2, micgen.MedicineGeneric3}
	meds := make([]mic.MedicineID, len(codes))
	for i, c := range codes {
		id, err := env.MedicineID(c)
		if err != nil {
			return nil, err
		}
		meds[i] = id
	}
	stroke, err := env.DiseaseID(micgen.DiseaseStroke)
	if err != nil {
		return nil, err
	}
	months := []struct {
		m     int
		label string
	}{
		{micgen.GenericReleaseMonth - 1, "one month before release"},
		{micgen.GenericReleaseMonth + 1, "one month after release"},
		{micgen.GenericReleaseMonth + 12, "one year after release"},
	}
	res := &Figure8Result{Medicines: codes, MedIDs: meds}
	for _, mm := range months {
		if mm.m < 0 || mm.m >= env.Config.Months {
			continue
		}
		counts, err := apps.PairCountsByCity(env.Filtered, stroke, meds, mm.m, env.Config.EM)
		if err != nil {
			return nil, err
		}
		res.Snapshots = append(res.Snapshots, Figure8Snapshot{Month: mm.m, Label: mm.label, Cities: counts})
	}
	// Build the display grid from the catalog's city coordinates.
	maxRow, maxCol := 0, 0
	for _, c := range env.Truth.Catalog.Cities {
		if c.Row > maxRow {
			maxRow = c.Row
		}
		if c.Col > maxCol {
			maxCol = c.Col
		}
	}
	res.Grid = make([][]string, maxRow+1)
	for r := range res.Grid {
		res.Grid[r] = make([]string, maxCol+1)
	}
	for _, c := range env.Truth.Catalog.Cities {
		res.Grid[c.Row][c.Col] = c.Name
	}
	return res, nil
}

// GenericShare returns the fraction of a city's anti-platelet prescriptions
// that are generics in a snapshot. Medicines[0]/MedIDs[0] is the original by
// construction. Returns 0 when the city has no prescriptions.
func (r *Figure8Result) GenericShare(snap Figure8Snapshot, city string) float64 {
	counts, ok := snap.Cities[city]
	if !ok || len(r.MedIDs) == 0 {
		return 0
	}
	var total, generic float64
	for i, id := range r.MedIDs {
		v := counts[id]
		total += v
		if i > 0 {
			generic += v
		}
	}
	if total <= 0 {
		return 0
	}
	return generic / total
}

// Render prints one share table per snapshot.
func (r *Figure8Result) Render(w io.Writer) {
	for _, snap := range r.Snapshots {
		t := &report.Table{
			Title:   fmt.Sprintf("Figure 8 (%s, month %d): anti-platelet prescriptions by city", snap.Label, snap.Month),
			Headers: append([]string{"city"}, r.Medicines...),
		}
		cities := make([]string, 0, len(snap.Cities))
		for c := range snap.Cities {
			cities = append(cities, c)
		}
		sort.Strings(cities)
		for _, city := range cities {
			counts := snap.Cities[city]
			cells := []interface{}{city}
			for _, id := range r.MedIDs {
				cells = append(cells, counts[id])
			}
			t.AddRow(cells...)
		}
		t.Render(w)
		// Spatial layout, like the paper's map: generic share per grid cell.
		fmt.Fprintln(w, "  generic share by location:")
		for _, row := range r.Grid {
			fmt.Fprint(w, "   ")
			for _, city := range row {
				if city == "" {
					fmt.Fprint(w, "      .")
					continue
				}
				fmt.Fprintf(w, " %5.0f%%", 100*r.GenericShare(snap, city))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// ForecastCase is one Fig. 9 panel: a series forecast by both models.
type ForecastCase struct {
	Label    string
	Actual   []float64 // full series (train + test)
	TrainLen int
	SSM      []float64 // forecasts over the test window
	ARIMA    []float64
}

// Figure9Result reproduces Fig. 9: train on the first T−h months, forecast
// the last h, compare the structural model against ARIMA. The paper reports
// comparable median RMSE with ARIMA unstable on seasonal/late-break series.
type Figure9Result struct {
	Cases []ForecastCase
	// Median RMSE over all sampled disease series (normalized to [0, 1]).
	MedianRMSESSM, MedianRMSEARIMA float64
	// Unstable counts forecasts whose error exploded (> 3× series range).
	UnstableSSM, UnstableARIMA int
	N                          int
}

// RunFigure9 reproduces the paper's Figure 9 and §VIII-B2.
func RunFigure9(env *Env) (*Figure9Result, error) {
	all, err := env.SampleSeries()
	if err != nil {
		return nil, err
	}
	h := env.Config.ForecastHorizon
	res := &Figure9Result{}
	var rmseSSM, rmseARIMA []float64
	var mu sync.Mutex

	var diseaseSeries []LabeledSeries
	for _, s := range all {
		if s.Kind == trend.KindDisease && len(s.Values) > h+10 {
			diseaseSeries = append(diseaseSeries, s)
		}
	}
	forecast := func(i int) error {
		y := diseaseSeries[i].Values
		trainLen := len(y) - h
		train := y[:trainLen]
		test := y[trainLen:]
		ssmFC, arimaFC, err := forecastBoth(train, h)
		if err != nil {
			return err
		}
		// Normalize the RMSE by the series range like the paper's
		// "(normalized) disease time series".
		norm := stat.Max(y) - stat.Min(y)
		if norm <= 0 {
			norm = 1
		}
		scaleDown := func(xs []float64) []float64 {
			out := make([]float64, len(xs))
			for j, v := range xs {
				out[j] = v / norm
			}
			return out
		}
		mu.Lock()
		rmseSSM = append(rmseSSM, stat.RMSE(scaleDown(test), scaleDown(ssmFC)))
		rmseARIMA = append(rmseARIMA, stat.RMSE(scaleDown(test), scaleDown(arimaFC)))
		if forecastUnstable(test, ssmFC) {
			res.UnstableSSM++
		}
		if forecastUnstable(test, arimaFC) {
			res.UnstableARIMA++
		}
		mu.Unlock()
		return nil
	}
	err = parallelFor(len(diseaseSeries), env.Config.Workers, forecast)
	if err != nil {
		return nil, err
	}
	res.N = len(rmseSSM)
	res.MedianRMSESSM = stat.Median(rmseSSM)
	res.MedianRMSEARIMA = stat.Median(rmseARIMA)

	// Case panels: two seasonal diseases and three structural-break series.
	proposed, _, err := env.Series()
	if err != nil {
		return nil, err
	}
	addCase := func(label string, y []float64) error {
		if y == nil || len(y) <= h+10 {
			return nil
		}
		trainLen := len(y) - h
		ssmFC, arimaFC, err := forecastBoth(y[:trainLen], h)
		if err != nil {
			return err
		}
		res.Cases = append(res.Cases, ForecastCase{
			Label: label, Actual: y, TrainLen: trainLen, SSM: ssmFC, ARIMA: arimaFC,
		})
		return nil
	}
	for _, sc := range []struct{ label, code string }{
		{"influenza (seasonal)", micgen.DiseaseInfluenza},
		{"hay fever (seasonal)", micgen.DiseaseHayFever},
	} {
		id, err := env.DiseaseID(sc.code)
		if err != nil {
			return nil, err
		}
		if err := addCase(sc.label, proposed.Disease(id)); err != nil {
			return nil, err
		}
	}
	for _, sc := range []struct{ label, code string }{
		{"new osteoporosis medicine (structural break)", micgen.MedicineNewOsteo},
		{"anti-platelet original (late decline)", micgen.MedicineAntiplOrig},
		{"authorized generic (late break)", micgen.MedicineGeneric3},
	} {
		id, err := env.MedicineID(sc.code)
		if err != nil {
			return nil, err
		}
		if err := addCase(sc.label, proposed.Medicine(id)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// forecastBoth fits both models on train and forecasts h steps.
func forecastBoth(train []float64, h int) (ssmFC, arimaFC []float64, err error) {
	det, err := changepoint.DetectExact(train, true)
	if err != nil {
		return nil, nil, err
	}
	fit, err := ssm.FitConfig(train, ssm.Config{Seasonal: true, ChangePoint: det.ChangePoint})
	if err != nil {
		return nil, nil, err
	}
	ssmFC, _, err = fit.Forecast(h)
	if err != nil {
		return nil, nil, err
	}
	ar, err := arima.Select(train, arima.SelectOptions{})
	if err != nil {
		return nil, nil, err
	}
	arimaFC, err = ar.Forecast(h)
	if err != nil {
		return nil, nil, err
	}
	return ssmFC, arimaFC, nil
}

// forecastUnstable reports whether a forecast wandered more than 3× the test
// window's own range away from it.
func forecastUnstable(test, fc []float64) bool {
	lo, hi := stat.Min(test), stat.Max(test)
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	for _, v := range fc {
		if v > hi+3*span || v < lo-3*span {
			return true
		}
	}
	return false
}

// Render plots the forecast panels and prints the medians.
func (r *Figure9Result) Render(w io.Writer) {
	for _, cs := range r.Cases {
		p := &report.LinePlot{Title: "Figure 9: " + cs.Label}
		p.Add("actual", cs.Actual)
		pad := func(fc []float64) []float64 {
			out := make([]float64, len(cs.Actual))
			for i := range out {
				out[i] = nan()
			}
			for i, v := range fc {
				if cs.TrainLen+i < len(out) {
					out[cs.TrainLen+i] = v
				}
			}
			return out
		}
		p.Add("ssm forecast", pad(cs.SSM))
		p.Add("arima forecast", pad(cs.ARIMA))
		p.Render(w)
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "median normalized RMSE over %d disease series: SSM = %.3f, ARIMA = %.3f\n",
		r.N, r.MedianRMSESSM, r.MedianRMSEARIMA)
	fmt.Fprintf(w, "unstable forecasts: SSM = %d, ARIMA = %d\n", r.UnstableSSM, r.UnstableARIMA)
}

func nan() float64 { return math.NaN() }
