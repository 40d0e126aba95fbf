package trend

import (
	"fmt"
	"sort"

	"mictrend/internal/mic"
	"mictrend/internal/ssm"
)

// The paper's §IX asks: "Can we predict the future growth of a prescription
// from its initial behavior?" — noting that detected structural breaks show
// early signs before the prevalence. EmergingTrends answers it with the
// machinery already in place: for every detection with an upward slope
// shift, refit the structural model at the detected change point and project
// the series forward; rank by projected growth.

// Emerging is one detected upward trend with its projection.
type Emerging struct {
	Kind     SeriesKind
	Disease  mic.DiseaseID
	Medicine mic.MedicineID
	// ChangePoint is the detected break month.
	ChangePoint int
	// SlopePerMonth is the fitted λ in data units: the monthly growth the
	// break added.
	SlopePerMonth float64
	// LastValue is the final observed value.
	LastValue float64
	// Forecast holds the projected values for the requested horizon.
	Forecast []float64
	// ProjectedGrowth = Forecast[h−1] − LastValue.
	ProjectedGrowth float64
}

// EmergingTrends refits every detection that found a change point with a
// positive slope coefficient and projects it horizon months ahead, returning
// the list sorted by projected growth (largest first). Detections without a
// change point or with a non-positive slope are skipped — declines and
// stable series are not "emerging". A series whose refit or forecast fails
// is skipped too (the pipeline already produced its detection); the error
// return reports the first such failure alongside the surviving
// projections, so callers can degrade it to a warning.
func EmergingTrends(dets []Detection, seasonal bool, horizon int) ([]Emerging, error) {
	var out []Emerging
	var firstErr error
	keepErr := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, det := range dets {
		if !det.Result.Detected() || horizon <= 0 {
			continue
		}
		fit, err := ssm.FitConfig(det.Series, ssm.Config{
			Seasonal:    seasonal,
			ChangePoint: det.Result.ChangePoint,
		})
		if err != nil {
			keepErr(fmt.Errorf("trend: projecting %s: %w", det.Key(), err))
			continue
		}
		slope := fit.Lambda * fit.Scale
		if slope <= 0 {
			continue
		}
		mean, _, err := fit.Forecast(horizon)
		if err != nil {
			keepErr(fmt.Errorf("trend: projecting %s: %w", det.Key(), err))
			continue
		}
		e := Emerging{
			Kind:          det.Kind,
			Disease:       det.Disease,
			Medicine:      det.Medicine,
			ChangePoint:   det.Result.ChangePoint,
			SlopePerMonth: slope,
			LastValue:     det.Series[len(det.Series)-1],
			Forecast:      mean,
		}
		e.ProjectedGrowth = mean[horizon-1] - e.LastValue
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool {
		return out[a].ProjectedGrowth > out[b].ProjectedGrowth
	})
	return out, firstErr
}
