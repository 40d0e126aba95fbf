package ssm

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"mictrend/internal/kalman"
)

// TestAICAtMatchesFitConfig pins the AIC-only fit behind AICAtOptions to the
// full FitConfigOptions fit: the same AIC and OptParams bits, the same error,
// and the same optimizer accounting, on seasonal and non-seasonal models,
// cold and warm starts, series with missing months, a constant series whose
// concentrated variance sits on its floor, and series on which every start
// fails or which are too short to fit, with and without extra
// interventions.
func TestAICAtMatchesFitConfig(t *testing.T) {
	gappy := synthSeries(30, 2, 15, 0.5, 0.3, 11)
	gappy[7], gappy[25] = math.NaN(), math.NaN()
	allMissing := make([]float64, 30)
	for i := range allMissing {
		allMissing[i] = math.NaN()
	}
	// An all-missing series fails every start only after each has run to
	// its iteration limit, so it runs non-seasonal only, where that is
	// cheap; the failure path is the same for both models.
	series := []struct {
		name       string
		y          []float64
		noSeasonal bool
	}{
		{"seasonal-break", synthSeries(30, 2, 15, 0.5, 0.3, 3), false},
		{"gappy", gappy, false},
		{"constant", make([]float64, 30), false},
		{"all-missing", allMissing, true},
		{"short", synthSeries(8, 2, 3, 0.5, 0.3, 5), false},
	}
	wsFit, wsAIC := kalman.NewWorkspace(), new(Scratch)
	compared, failed := 0, 0
	for _, s := range series {
		for _, seasonal := range []bool{false, true} {
			if seasonal && s.noSeasonal {
				continue
			}
			// A neighbor's optimum seeds the warm starts, as in the scans.
			var warm []float64
			if fit, err := FitConfig(s.y, Config{Seasonal: seasonal, ChangePoint: NoChangePoint}); err == nil {
				warm = fit.OptParams
			}
			for _, cfg := range []Config{
				{ChangePoint: NoChangePoint},
				{ChangePoint: 0},
				{ChangePoint: 15},
				{ChangePoint: 15, Extra: []Intervention{{Kind: LevelShift, Month: 5}}},
				{ChangePoint: NoChangePoint, Extra: []Intervention{{Kind: SlopeShift, Month: 4}, {Kind: LevelShift, Month: 20}}},
			} {
				cfg.Seasonal = seasonal
				cp := cfg.ChangePoint
				starts := []FitOptions{{}}
				if warm != nil {
					starts = append(starts, FitOptions{Start: warm})
				}
				for _, opts := range starts {
					var fitStats, aicStats FitStats
					opts.Stats = &fitStats
					fit, fitErr := FitConfigOptions(s.y, cfg, wsFit, opts)
					opts.Stats = &aicStats
					aic, opt, aicErr := AICAtOptions(s.y, cfg, wsAIC, opts)
					label := s.name
					if seasonal {
						label += "/seasonal"
					}
					if cfg.Extra != nil {
						label += fmt.Sprintf(" extra=%v", cfg.Extra)
					}
					if (fitErr == nil) != (aicErr == nil) {
						t.Fatalf("%s cp=%d warm=%v: FitConfigOptions error %v, AICAtOptions error %v", label, cp, opts.Start != nil, fitErr, aicErr)
					}
					if fitErr != nil {
						if fitErr.Error() != aicErr.Error() || errors.Is(fitErr, ErrSeriesTooShort) != errors.Is(aicErr, ErrSeriesTooShort) {
							t.Fatalf("%s cp=%d: FitConfigOptions error %v, AICAtOptions error %v", label, cp, fitErr, aicErr)
						}
						failed++
					} else {
						if math.Float64bits(aic) != math.Float64bits(fit.AIC) {
							t.Fatalf("%s cp=%d warm=%v: AIC %v != FitConfigOptions %v", label, cp, opts.Start != nil, aic, fit.AIC)
						}
						if len(opt) != len(fit.OptParams) {
							t.Fatalf("%s cp=%d: OptParams %v != FitConfigOptions %v", label, cp, opt, fit.OptParams)
						}
						for i := range opt {
							if math.Float64bits(opt[i]) != math.Float64bits(fit.OptParams[i]) {
								t.Fatalf("%s cp=%d warm=%v: OptParams %v != FitConfigOptions %v", label, cp, opts.Start != nil, opt, fit.OptParams)
							}
						}
						compared++
					}
					if fitStats.LikEvals.Load() != aicStats.LikEvals.Load() || fitStats.Starts.Load() != aicStats.Starts.Load() ||
						fitStats.Fits.Load() != aicStats.Fits.Load() || fitStats.FitFailures.Load() != aicStats.FitFailures.Load() {
						t.Fatalf("%s cp=%d warm=%v: accounting differs: evals %d/%d starts %d/%d fits %d/%d failures %d/%d", label, cp, opts.Start != nil,
							fitStats.LikEvals.Load(), aicStats.LikEvals.Load(), fitStats.Starts.Load(), aicStats.Starts.Load(),
							fitStats.Fits.Load(), aicStats.Fits.Load(), fitStats.FitFailures.Load(), aicStats.FitFailures.Load())
					}
				}
			}
		}
	}
	if compared == 0 || failed == 0 {
		t.Fatalf("%d fits compared, %d failures compared; the cases should cover both", compared, failed)
	}
}
