// Package ssm implements the paper's structural time series model (§V,
// Eq. 9): a local level plus an optional 12-month dummy-variable seasonal
// plus slope-shift interventions, observed with Gaussian noise. Disturbance
// variances are estimated by maximum likelihood through the Kalman filter;
// models are scored with AIC; fitted models decompose the series into the
// level/seasonal/intervention/irregular components shown in the paper's
// Figures 6–7 and forecast as in Figure 9.
//
// Beyond the paper's single slope shift, the package supports multiple
// simultaneous interventions and level-shift interventions — the extension
// the paper's §IX explicitly proposes ("state space models can accept more
// than one intervention variable, we can extend our model in that way").
package ssm

import (
	"errors"
	"fmt"
	"slices"

	"mictrend/internal/kalman"
	"mictrend/internal/linalg"
)

// NoChangePoint marks the absence of an intervention (the paper's
// t_CP = ∞).
const NoChangePoint = -1

// InterventionKind selects the structural change shape an intervention
// models (Commandeur & Koopman's intervention taxonomy).
type InterventionKind int

// Intervention kinds.
const (
	// SlopeShift is the paper's choice: w_t = max(0, t−cp+1), an ongoing
	// increase in the slope after the change point.
	SlopeShift InterventionKind = iota
	// LevelShift is a step: w_t = 1 for t ≥ cp — the natural shape for
	// price revisions and one-off substitutions.
	LevelShift
)

// String names the kind.
func (k InterventionKind) String() string {
	if k == LevelShift {
		return "level-shift"
	}
	return "slope-shift"
}

// Intervention is one structural change regressor with an unknown
// coefficient λ estimated by the filter.
type Intervention struct {
	Kind  InterventionKind
	Month int // 0-based change point
}

// Regressor returns the intervention's dummy value at time t.
func (iv Intervention) Regressor(t int) float64 {
	if iv.Month == NoChangePoint || t < iv.Month {
		return 0
	}
	if iv.Kind == LevelShift {
		return 1
	}
	return float64(t - iv.Month + 1)
}

// Config selects the model variant. Note that ChangePoint 0 means an
// intervention starting at month 0; set ChangePoint to NoChangePoint for the
// intervention-free variants (the paper's "LL" and "LL+S" ablation rows).
type Config struct {
	// Seasonal enables the dummy seasonal component with the given Period
	// (default 12 when Seasonal is set and Period is 0).
	Seasonal bool
	Period   int
	// ChangePoint is the 0-based month of the paper's single slope-shift
	// intervention, or NoChangePoint for none. The regressor is
	// w_t = max(0, t−cp+1). Each intervention coefficient λ is initialized
	// diffusely and its first active observation is excluded from the
	// likelihood (the same convention the level and seasonal diffuse
	// elements follow), so AIC values stay comparable across candidate
	// change points and against the intervention-free model.
	ChangePoint int
	// Extra lists additional interventions beyond ChangePoint — the §IX
	// multiple-change-point extension. Entries with Month == NoChangePoint
	// are ignored.
	Extra []Intervention
	// MaxIter bounds the variance optimization (default 400).
	MaxIter int
}

func (c Config) withDefaults() Config {
	if c.Seasonal && c.Period <= 0 {
		c.Period = 12
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 400
	}
	return c
}

// Interventions returns the merged intervention list: the legacy single
// slope shift (when set) followed by Extra.
func (c Config) Interventions() []Intervention { return c.appendInterventions(nil) }

// appendInterventions appends the Interventions list to dst.
func (c Config) appendInterventions(dst []Intervention) []Intervention {
	if c.ChangePoint != NoChangePoint {
		dst = append(dst, Intervention{Kind: SlopeShift, Month: c.ChangePoint})
	}
	for _, iv := range c.Extra {
		if iv.Month != NoChangePoint {
			dst = append(dst, iv)
		}
	}
	return dst
}

// numInterventions returns len(c.Interventions()) without building the
// list.
func (c Config) numInterventions() int {
	n := 0
	if c.ChangePoint != NoChangePoint {
		n++
	}
	for _, iv := range c.Extra {
		if iv.Month != NoChangePoint {
			n++
		}
	}
	return n
}

// HasIntervention reports whether the config includes any intervention
// component.
func (c Config) HasIntervention() bool { return c.numInterventions() > 0 }

// stateDim returns the state vector length: level + (period−1) seasonal
// states + one λ per intervention.
func (c Config) stateDim() int {
	n := 1
	if c.Seasonal {
		n += c.Period - 1
	}
	return n + c.numInterventions()
}

// numVariances returns the count of estimated disturbance variances:
// observation ε and level ξ always; seasonal ω when present.
func (c Config) numVariances() int {
	if c.Seasonal {
		return 3
	}
	return 2
}

// NumParams returns k for AIC: estimated variances plus initial state
// elements (the C&K convention of charging each diffuse/estimated initial
// state value as a parameter, which also charges every λ exactly once).
func (c Config) NumParams() int {
	return c.numVariances() + c.stateDim()
}

// InterventionRegressor returns the slope-shift dummy w_t for a change point
// cp: 0 before cp, then 1, 2, 3, … (the paper's w_qt = t−t_CP+1).
func InterventionRegressor(cp, t int) float64 {
	return Intervention{Kind: SlopeShift, Month: cp}.Regressor(t)
}

// build assembles the kalman.Model for the config and variance triple.
// Variances are (εVar, ξVar, ωVar); ωVar ignored without seasonality.
func build(cfg Config, epsVar, xiVar, omegaVar float64) (*kalman.Model, error) {
	if epsVar < 0 || xiVar < 0 || omegaVar < 0 {
		return nil, errors.New("ssm: negative variance")
	}
	sm := newStructural(cfg.withDefaults())
	sm.setVariances(epsVar, xiVar, omegaVar)
	if err := sm.m.Validate(); err != nil {
		return nil, fmt.Errorf("ssm: built invalid model: %w", err)
	}
	return sm.m, nil
}

// structural is a built structural model with the intervention list its
// observation row reads. Its shape — seasonality, period and the number of
// interventions — fixes T, R, the layout of Q, A1 and P1. The intervention
// months and kinds, the likelihood skips and the variances are rewritten in
// place, which is how a Scratch keeps one search model per shape for all its
// fits.
type structural struct {
	m        *kalman.Model
	seasonal bool
	ivs      []Intervention
	base     int       // index of the first λ state
	z        []float64 // the observation row Z returns
}

// newStructural builds the model of cfg (defaults applied) with zero
// variances.
func newStructural(cfg Config) *structural {
	n := cfg.stateDim()
	period := cfg.Period
	nIv := cfg.numInterventions()
	sm := &structural{
		seasonal: cfg.Seasonal,
		ivs:      make([]Intervention, 0, nIv),
		base:     n - nIv,
		z:        make([]float64, n),
	}

	tm := linalg.NewMatrix(n, n)
	tm.Set(0, 0, 1) // level random walk
	if cfg.Seasonal {
		// Seasonal block occupies rows/cols 1..period-1:
		// γ'_1 = −Σ γ_s; γ'_s = γ_{s-1}.
		for s := 1; s <= period-1; s++ {
			tm.Set(1, s, -1)
		}
		for s := 2; s <= period-1; s++ {
			tm.Set(s, s-1, 1)
		}
	}
	for j := sm.base; j < n; j++ {
		tm.Set(j, j, 1) // each λ constant
	}

	nDist := 1 // level disturbance ξ
	if cfg.Seasonal {
		nDist = 2 // plus seasonal disturbance ω
	}
	r := linalg.NewMatrix(n, nDist)
	r.Set(0, 0, 1)
	if cfg.Seasonal {
		r.Set(1, 1, 1)
	}

	p1 := linalg.NewMatrix(n, n)
	diffuse := 1
	p1.Set(0, 0, kalman.DiffuseVariance)
	if cfg.Seasonal {
		for s := 1; s <= period-1; s++ {
			p1.Set(s, s, kalman.DiffuseVariance)
		}
		diffuse += period - 1
	}
	// Every λ is diffuse; its initialization consumes its first active
	// observation (setInterventions).
	for j := sm.base; j < n; j++ {
		p1.Set(j, j, kalman.DiffuseVariance)
	}

	sm.z[0] = 1
	if cfg.Seasonal {
		sm.z[1] = 1
	}
	sm.m = &kalman.Model{
		T:            tm,
		R:            r,
		Q:            linalg.NewMatrix(nDist, nDist),
		Z:            sm.observation,
		A1:           make([]float64, n),
		P1:           p1,
		DiffuseCount: diffuse,
	}
	sm.setInterventions(cfg)
	return sm
}

// observation is the model's Z: the level and seasonal entries are fixed,
// and each λ entry is its intervention's regressor at t.
func (sm *structural) observation(t int) []float64 {
	for j, iv := range sm.ivs {
		sm.z[sm.base+j] = iv.Regressor(t)
	}
	return sm.z
}

// setInterventions makes cfg's interventions the model's; cfg must have
// the model's shape. Each λ's diffuse initialization is charged its first
// active observation. Skip indices must be distinct so each λ is charged
// one observation: when two interventions activate at the same month (or
// inside the leading burn-in) the later one charges the next free index.
func (sm *structural) setInterventions(cfg Config) {
	sm.ivs = cfg.appendInterventions(sm.ivs[:0])
	skip := sm.m.SkipLik[:0]
	for _, iv := range sm.ivs {
		idx := max(iv.Month, sm.m.DiffuseCount)
		for slices.Contains(skip, idx) {
			idx++
		}
		skip = append(skip, idx)
	}
	sm.m.SkipLik = skip
}

// setVariances sets H to εVar and the Q diagonal to ξVar and, with
// seasonality, ωVar.
func (sm *structural) setVariances(epsVar, xiVar, omegaVar float64) {
	sm.m.H = epsVar
	sm.m.Q.Set(0, 0, xiVar)
	if sm.seasonal {
		sm.m.Q.Set(1, 1, omegaVar)
	}
}
