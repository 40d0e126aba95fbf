package changepoint

import (
	"fmt"

	"mictrend/internal/ssm"
)

// MultiOptions configures greedy multiple change point detection — the
// extension the paper's §IX proposes for series with more than one
// structural break.
type MultiOptions struct {
	// MaxChanges bounds how many interventions may be added (default 3).
	MaxChanges int
	// Seasonal selects the seasonal model variant.
	Seasonal bool
	// Kind is the intervention shape added at each step (default
	// SlopeShift, the paper's choice).
	Kind ssm.InterventionKind
	// MinGap forbids a new change point within this many months of an
	// accepted one (default 2), preventing the greedy step from re-fitting
	// the same break twice.
	MinGap int
	// UseBinary switches the per-step search to Algorithm 2.
	UseBinary bool
}

func (o MultiOptions) withDefaults() MultiOptions {
	if o.MaxChanges <= 0 {
		o.MaxChanges = 3
	}
	if o.MinGap <= 0 {
		o.MinGap = 2
	}
	return o
}

// MultiResult is the outcome of a greedy multiple change point search.
type MultiResult struct {
	// Interventions lists the accepted change points in acceptance order.
	Interventions []ssm.Intervention
	// AIC is the final model's score.
	AIC float64
	// BaseAIC is the intervention-free model's score.
	BaseAIC float64
	// Fits counts model fits performed across all greedy steps.
	Fits int
}

// DetectMultiple greedily adds interventions while each addition improves
// AIC: at every step it scans candidate months for one more intervention
// given the already-accepted set, accepts the best candidate only when the
// combined model's AIC drops, and stops otherwise. With MaxChanges = 1 it
// degenerates to the paper's single change point search.
func DetectMultiple(y []float64, opts MultiOptions) (MultiResult, error) {
	s := scratches.Get().(*ssm.Scratch)
	res, err := detectMultiple(y, opts.withDefaults(), s)
	scratches.Put(s)
	return res, err
}

// detectMultiple is DetectMultiple with every fit an AIC-only fit on s.
func detectMultiple(y []float64, opts MultiOptions, s *ssm.Scratch) (MultiResult, error) {
	n := len(y)
	if n < 2 {
		return MultiResult{}, fmt.Errorf("changepoint: series length %d too short", n)
	}
	fits := 0
	aicWith := func(ivs []ssm.Intervention) (float64, error) {
		fits++
		aic, _, err := ssm.AICAtOptions(y, ssm.Config{
			Seasonal:    opts.Seasonal,
			ChangePoint: ssm.NoChangePoint,
			Extra:       ivs,
		}, s, ssm.FitOptions{})
		return aic, err
	}

	current := []ssm.Intervention{}
	currentAIC, err := aicWith(nil)
	if err != nil {
		return MultiResult{}, err
	}
	res := MultiResult{BaseAIC: currentAIC}

	var trial []ssm.Intervention // the candidate set, rebuilt per candidate
	for len(current) < opts.MaxChanges {
		blocked := func(cp int) bool {
			for _, iv := range current {
				if abs(cp-iv.Month) < opts.MinGap {
					return true
				}
			}
			return false
		}
		eval := func(cp int) (float64, error) {
			if cp == ssm.NoChangePoint {
				return currentAIC, nil
			}
			if blocked(cp) {
				// Re-fitting an accepted break cannot improve; report the
				// current score so the search skips it.
				return currentAIC, nil
			}
			trial = append(append(trial[:0], current...), ssm.Intervention{Kind: opts.Kind, Month: cp})
			return aicWith(trial)
		}
		var step Result
		if opts.UseBinary {
			step, err = Binary(n, eval)
		} else {
			step, err = Exact(n, eval)
		}
		if err != nil {
			return MultiResult{}, err
		}
		// Fits are already counted inside aicWith.
		if !step.Detected() || step.AIC >= currentAIC {
			break
		}
		current = append(current, ssm.Intervention{Kind: opts.Kind, Month: step.ChangePoint})
		currentAIC = step.AIC
	}
	res.Interventions = current
	res.AIC = currentAIC
	res.Fits = fits
	return res, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
