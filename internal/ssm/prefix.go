package ssm

import (
	"errors"
	"fmt"
	"math"

	"mictrend/internal/kalman"
	"mictrend/internal/linalg"
	"mictrend/internal/stat"
)

// PrefixScanner scores every candidate change point of one series at a shared
// parameter vector in ~O(T) filter steps instead of the O(T²) a fit-per-
// candidate ladder pays.
//
// The trick is the prefix-sharing invariant: a candidate's slope-shift
// regressor is exactly zero before its change point, so up to t_CP the
// candidate model's λ block is inert — the sparse filter kernels skip exact
// zeros, the λ row of the gain stays 0, the λ state stays at its diffuse
// prior — and the candidate's filter recursion is arithmetic-for-arithmetic
// the no-intervention model's. Prepare therefore runs ONE filter pass over
// the no-intervention model, checkpointing the predicted state (a, P) at
// every candidate boundary into a reusable arena together with the running
// likelihood sums; Score(cp) resumes from checkpoint cp with the λ state
// appended (mean 0, diffuse variance, untouched cross-covariances — exactly
// the values the inert block would carry) and filters only the suffix.
// Continuing the stored prefix sums — the Σ log F product state among them
// — over the suffix terms in ascending-time order repeats a full
// evaluation's operations, so it reproduces the full-series concentrated
// likelihood of the candidate model at the shared parameters bitwise (see
// TestPrefixScoreMatchesFullEvaluation).
//
// A Scratch keeps one scanner and re-arms it for each series, so a scan on
// a warmed scratch reuses its models, workspaces and arenas. A
// PrefixScanner is not safe for concurrent use.
type PrefixScanner struct {
	// Stats, when non-nil, counts every checkpoint resume (PrefixResumes).
	Stats *FitStats

	scaled   []float64
	seasonal bool
	maxCP    int
	base     int // no-intervention state dimension
	diffuse  int // shared diffuse burn-in of the level/seasonal block
	nq       int // optimizer coordinates (relative log-variances)
	// numParams is the candidate models' AIC parameter count (shared by all
	// candidates: variances + base states + one λ).
	numParams int

	noInt  *kalman.Model // built per shape; H/Q rewritten per Prepare
	suffix *kalman.Model // candidate tail model; A1/P1/diffuse set per Score
	// Separate workspaces for the two state dimensions, so alternating
	// Prepare/Score calls never thrash buffer reallocation.
	wsPrefix *kalman.Workspace
	wsSuffix *kalman.Workspace
	// onStep is checkpoint, bound once so that Prepare allocates nothing.
	onStep func(t int, a, k []float64, p *linalg.Matrix)

	// Checkpoint arena: boundary b ∈ [0, maxCP] holds the predicted state
	// entering step b (boundary 0 is the diffuse initialization) and the
	// likelihood sums over the contributions of steps [0, b).
	aArena []float64 // (maxCP+1) × base
	pArena []float64 // (maxCP+1) × base²
	sums   []prefixSums

	skipBuf  [1]int
	prepared bool
}

// prefixSums are the likelihood sums over a prefix: the Σ log F product as
// a full evaluation holds it after the prefix's last contribution, Σ V²/F,
// and the number of contributions.
type prefixSums struct {
	logF  kalman.LogSum
	v2f   float64
	count int
}

// NewPrefixScanner builds a scanner for y with candidate change points
// 0..maxCP. The series is rescaled exactly as FitConfig rescales it, so
// scores are comparable with fitted AICs of the same series.
func NewPrefixScanner(y []float64, seasonal bool, maxCP int) (*PrefixScanner, error) {
	ps := new(PrefixScanner)
	if err := ps.arm(y, seasonal, maxCP); err != nil {
		return nil, err
	}
	return ps, nil
}

// PrefixScanner is NewPrefixScanner on the scratch's own scanner: the first
// call builds it, and each later one re-arms it for y, reusing what the
// previous series left of the same shape. The scanner is valid until the
// next PrefixScanner call on s; its Stats start nil.
func (s *Scratch) PrefixScanner(y []float64, seasonal bool, maxCP int) (*PrefixScanner, error) {
	if s.prefix == nil {
		ps, err := NewPrefixScanner(y, seasonal, maxCP)
		if err == nil {
			s.prefix = ps
		}
		return ps, err
	}
	if err := s.prefix.arm(y, seasonal, maxCP); err != nil {
		return nil, err
	}
	return s.prefix, nil
}

// arm readies ps for y with candidates 0..maxCP: it rescales y, rebuilds
// the two models when the seasonality changed, and sizes the arenas,
// keeping their storage. It leaves ps unprepared.
func (ps *PrefixScanner) arm(y []float64, seasonal bool, maxCP int) error {
	ps.Stats = nil
	ps.prepared = false
	if len(y) < 2 {
		return fmt.Errorf("%w: len %d", ErrSeriesTooShort, len(y))
	}
	if maxCP < 0 || maxCP >= len(y) {
		return fmt.Errorf("ssm: prefix scan bound %d outside series of length %d", maxCP, len(y))
	}
	ps.scaled, _ = stat.RescaleInto(ps.scaled, y)

	if ps.noInt == nil || ps.seasonal != seasonal {
		noIntCfg := Config{Seasonal: seasonal, ChangePoint: NoChangePoint}.withDefaults()
		noInt, err := build(noIntCfg, 1, 1, 1)
		if err != nil {
			return err
		}
		// The suffix template is the candidate model re-rooted at its
		// change point: built for ChangePoint 0 its regressor is w(t_rel) =
		// t_rel+1 = t−cp+1, exactly the candidate's active regressor. Its
		// initial state, diffuse count, and skip index are overwritten per
		// Score.
		sufCfg := Config{Seasonal: seasonal, ChangePoint: 0}.withDefaults()
		suffix, err := build(sufCfg, 1, 1, 1)
		if err != nil {
			return err
		}
		ps.noInt, ps.suffix = noInt, suffix
		ps.seasonal = seasonal
		ps.base = noIntCfg.stateDim()
		ps.diffuse = noInt.DiffuseCount
		ps.nq = noIntCfg.numVariances() - 1
		ps.numParams = sufCfg.NumParams()
	}
	if ps.wsPrefix == nil {
		ps.wsPrefix, ps.wsSuffix = kalman.NewWorkspace(), kalman.NewWorkspace()
		ps.onStep = ps.checkpoint
	}
	ps.maxCP = maxCP
	ps.aArena = resize(ps.aArena, (maxCP+1)*ps.base)
	ps.pArena = resize(ps.pArena, (maxCP+1)*ps.base*ps.base)
	ps.sums = resize(ps.sums, maxCP+1)
	return nil
}

// resize returns s with length n, reusing its storage when it has the
// capacity. The contents are not cleared: Prepare rewrites every element
// Score reads.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Prepare runs the single no-intervention filter pass at the shared
// parameters (optimizer coordinates, as Fit.OptParams), filling the
// checkpoint arena. It must be called before Score and may be called again
// to re-anchor the ladder at a different parameter vector.
func (ps *PrefixScanner) Prepare(params []float64) error {
	ps.prepared = false
	if len(params) != ps.nq {
		return fmt.Errorf("ssm: prefix scan got %d parameters, want %d", len(params), ps.nq)
	}
	if err := checkParams(params); err != nil {
		return err
	}
	for _, m := range [...]*kalman.Model{ps.noInt, ps.suffix} {
		m.H = 1
		m.Q.Set(0, 0, math.Exp(params[0]))
		if ps.seasonal {
			m.Q.Set(1, 1, math.Exp(params[1]))
		}
	}

	// Boundary 0 is the diffuse initialization itself.
	base := ps.base
	copy(ps.aArena[:base], ps.noInt.A1)
	for i := 0; i < base; i++ {
		copy(ps.pArena[i*base:(i+1)*base], ps.noInt.P1.Row(i))
	}
	fr, err := ps.noInt.LogLikFilterOpts(ps.scaled, ps.wsPrefix, kalman.LogLikOptions{OnStep: ps.onStep})
	if err != nil {
		return err
	}
	// Running likelihood sums: sums[b] covers the contributions of steps
	// [0, b), taken in the same ascending order and the same arithmetic as
	// the kernels' (Σ log F multiplied into a LogSum, no log per step), so a
	// resumed score reproduces the full-series sums bitwise.
	var sum prefixSums
	for t := range fr.V {
		if t <= ps.maxCP {
			ps.sums[t] = sum
		}
		if fr.Contributed[t] {
			sum = sum.add(fr.V[t], fr.F[t])
		}
	}
	ps.prepared = true
	return nil
}

// checkpoint is Prepare's OnStep hook: it stores the predicted state
// entering step t+1 at boundary t+1.
func (ps *PrefixScanner) checkpoint(t int, a, _ []float64, p *linalg.Matrix) {
	b := t + 1
	if b > ps.maxCP {
		return
	}
	base := ps.base
	copy(ps.aArena[b*base:(b+1)*base], a)
	off := b * base * base
	for i := 0; i < base; i++ {
		copy(ps.pArena[off+i*base:off+(i+1)*base], p.Row(i))
	}
}

// add returns s with a contributing observation's innovation v and
// variance f entered, as the kernels enter them.
func (s prefixSums) add(v, f float64) prefixSums {
	s.logF = s.logF.Add(f)
	s.v2f += v * v / f
	s.count++
	return s
}

// Score returns the candidate model's AIC at the prepared parameters by
// resuming the filter from checkpoint cp. It equals, bit for bit, the AIC a
// full-series concentrated-likelihood evaluation of the cp model at the same
// parameters would produce.
func (ps *PrefixScanner) Score(cp int) (float64, error) {
	if !ps.prepared {
		return 0, errors.New("ssm: prefix scanner not prepared")
	}
	if cp < 0 || cp > ps.maxCP {
		return 0, fmt.Errorf("ssm: candidate %d outside prepared range [0, %d]", cp, ps.maxCP)
	}
	if s := ps.Stats; s != nil {
		s.PrefixResumes.Add(1)
	}

	// Rebuild the suffix model's initial conditions from the checkpoint: the
	// level/seasonal block verbatim, the λ state at its untouched diffuse
	// prior with zero cross-covariances.
	base := ps.base
	m := ps.suffix
	copy(m.A1[:base], ps.aArena[cp*base:(cp+1)*base])
	m.A1[base] = 0
	off := cp * base * base
	for i := 0; i < base; i++ {
		row := m.P1.Row(i)
		copy(row[:base], ps.pArena[off+i*base:off+(i+1)*base])
		row[base] = 0
	}
	last := m.P1.Row(base)
	for j := range last {
		last[j] = 0
	}
	last[base] = kalman.DiffuseVariance

	// Relative likelihood bookkeeping: the burn-in still ends at absolute
	// step max(diffuse, cp) — the λ initialization charges the candidate's
	// first active observation, or the first past the shared burn-in.
	rel := ps.diffuse - cp
	if rel < 0 {
		rel = 0
	}
	m.DiffuseCount = rel
	ps.skipBuf[0] = rel
	m.SkipLik = ps.skipBuf[:]

	fr, err := m.LogLikFilter(ps.scaled[cp:], ps.wsSuffix)
	if err != nil {
		return 0, err
	}
	sum := ps.sums[cp]
	for t := range fr.V {
		if fr.Contributed[t] {
			sum = sum.add(fr.V[t], fr.F[t])
		}
	}
	logLik, _, err := kalman.Concentrate(sum.logF.Sum(), sum.v2f, sum.count)
	if err != nil {
		return 0, errNoContributions
	}
	return -2*logLik + 2*float64(ps.numParams), nil
}
