package kalman

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"mictrend/internal/linalg"
)

// randomSeasonalModel draws a model the seasonal path accepts, in the spirit
// of randomSmallModel: periods 2–13, zero to two slope or level-shift
// interventions from any change point (including 0 and past the end),
// occasional zero or unusual observation entries and dense R, diffuse,
// checkpoint-like, zero or non-symmetric initial covariances, relative
// variances from e⁻¹⁰ to e¹⁰, and degenerate zero observation variances.
func randomSeasonalModel(rng *rand.Rand, steps int) (m *Model, ns int) {
	period := 2 + rng.IntN(12)
	ns = period - 1
	type iv struct {
		cp    int
		slope bool
	}
	ivs := make([]iv, rng.IntN(3))
	for j := range ivs {
		ivs[j] = iv{cp: rng.IntN(steps + 2), slope: rng.IntN(2) == 0}
	}
	base := 1 + ns
	n := base + len(ivs)

	tm := linalg.NewMatrix(n, n)
	tm.Set(0, 0, 1)
	for s := 1; s <= ns; s++ {
		tm.Set(1, s, -1)
	}
	for s := 2; s <= ns; s++ {
		tm.Set(s, s-1, 1)
	}
	for j := base; j < n; j++ {
		tm.Set(j, j, 1)
	}
	rm := linalg.NewMatrix(n, 2)
	rm.Set(0, 0, 1)
	rm.Set(1, 1, 1)
	if rng.IntN(4) == 0 {
		for i := 0; i < n; i++ {
			for j := 0; j < 2; j++ {
				rm.Set(i, j, rng.NormFloat64())
			}
		}
	}
	qm := linalg.NewMatrix(2, 2)
	for j := 0; j < 2; j++ {
		qm.Set(j, j, math.Exp(-10+20*rng.Float64()))
	}
	h := 1.0
	switch rng.IntN(5) {
	case 0:
		h = math.Exp(-10 + 20*rng.Float64())
	case 1:
		h = 0
	}

	a1 := make([]float64, n)
	for i := range a1 {
		switch rng.IntN(3) {
		case 0:
			a1[i] = rng.NormFloat64()
		case 1:
			a1[i] = math.Copysign(0, -1)
		}
	}
	p1 := linalg.NewMatrix(n, n)
	switch rng.IntN(4) {
	case 0: // diffuse
		for i := 0; i < n; i++ {
			p1.Set(i, i, DiffuseVariance)
		}
	case 1: // a checkpointed covariance: dense block, fresh diffuse λ
		b := linalg.NewMatrix(base, base)
		for i := 0; i < base; i++ {
			for j := 0; j < base; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		blk := linalg.NewMatrix(base, base)
		blk.MulTransB(b, b)
		for i := 0; i < base; i++ {
			copy(p1.Row(i)[:base], blk.Row(i))
		}
		for j := base; j < n; j++ {
			p1.Set(j, j, DiffuseVariance)
		}
	case 2: // zero prior: with H = 0 the first step degenerates
		for j := 0; j < 2; j++ {
			qm.Set(j, j, 0)
		}
	default: // non-diagonal, not even symmetric
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				p1.Set(i, j, 0.1*rng.NormFloat64())
			}
			p1.Set(i, i, 1+rng.Float64())
		}
	}

	z0, z1 := 1.0, 1.0
	switch rng.IntN(8) {
	case 0:
		z0 = 0
	case 1:
		z0 = rng.NormFloat64()
	case 2:
		z1 = 0
	}
	zBuf := make([]float64, n)
	zf := func(t int) []float64 {
		zBuf[0], zBuf[1] = z0, z1
		for j, v := range ivs {
			switch {
			case t < v.cp:
				zBuf[base+j] = 0
			case v.slope:
				zBuf[base+j] = float64(t - v.cp + 1)
			default:
				zBuf[base+j] = 1
			}
		}
		return zBuf
	}
	var skip []int
	for _, v := range ivs {
		if rng.IntN(2) == 0 {
			skip = append(skip, v.cp)
		}
	}
	return &Model{
		T: tm, R: rm, Q: qm, H: h, Z: zf,
		A1: a1, P1: p1,
		DiffuseCount: rng.IntN(period + 2),
		SkipLik:      skip,
	}, ns
}

// requireSameResult fails unless got equals the generic kernel's want bit
// for bit in every field, or both runs failed with the same error. It
// reports whether the runs failed.
func requireSameResult(t *testing.T, label string, got LogLikResult, gotErr error, want LogLikResult, wantErr error) (failed bool) {
	t.Helper()
	if !errors.Is(gotErr, wantErr) {
		t.Fatalf("%s: error %v, generic error %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		return true
	}
	same := func(name string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %s %v (%#x) != generic %v (%#x)", label, name, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
	same("LogLik", got.LogLik, want.LogLik)
	same("SumLogF", got.SumLogF, want.SumLogF)
	same("SumV2F", got.SumV2F, want.SumV2F)
	if got.LikCount != want.LikCount {
		t.Fatalf("%s: LikCount %d != generic %d", label, got.LikCount, want.LikCount)
	}
	steps := len(want.V)
	if len(got.V) != steps || len(got.F) != steps || len(got.Contributed) != steps {
		t.Fatalf("%s: result lengths %d/%d/%d, want %d", label, len(got.V), len(got.F), len(got.Contributed), steps)
	}
	var sumLogF, sumV2F float64
	for i := 0; i < steps; i++ {
		same("V", got.V[i], want.V[i])
		same("F", got.F[i], want.F[i])
		if got.Contributed[i] != want.Contributed[i] {
			t.Fatalf("%s: Contributed[%d] %v != generic %v", label, i, got.Contributed[i], want.Contributed[i])
		}
		if want.Contributed[i] {
			sumLogF += math.Log(want.F[i])
			sumV2F += want.V[i] * want.V[i] / want.F[i]
		}
	}
	// The sums equal a second pass over the contributing terms.
	same("SumLogF vs pass", want.SumLogF, sumLogF)
	same("SumV2F vs pass", want.SumV2F, sumV2F)
	return false
}

// TestSeasonalPathMatchesGeneric pins the seasonal path to the generic
// sparse kernel bit for bit on random seasonal models: every output field,
// and the error (ErrDegenerate) when the recursion breaks. One workspace
// serves every model, and every seventh model first runs the generic kernel
// through it, so the cached transition and L structure are exercised across
// calls and kernels.
func TestSeasonalPathMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 5))
	wsSeas, wsGen := NewWorkspace(), NewWorkspace()
	const models = 5000
	degenerate := 0
	for c := 0; c < models; c++ {
		steps := rng.IntN(81)
		m, ns := randomSeasonalModel(rng, steps)
		y := make([]float64, steps)
		for i := range y {
			y[i] = math.Exp(-3+6*rng.Float64()) * rng.NormFloat64()
			if i > steps/2 && rng.IntN(3) > 0 {
				y[i] += 5
			}
		}
		if kern, got := m.kernelFor(y, LogLikOptions{}); kern != seasonalKernel || got != ns {
			t.Fatalf("model %d: kernel %d with %d seasonal states, want the seasonal kernel with %d", c, kern, got, ns)
		}
		if c%7 == 0 {
			_, _ = m.logLikGeneric(y, wsSeas, LogLikOptions{})
		}
		got, errS := m.logLikSeasonal(y, wsSeas, ns)
		want, errG := m.logLikGeneric(y, wsGen, LogLikOptions{})
		if requireSameResult(t, fmt.Sprintf("model %d (period %d, n=%d)", c, ns+1, m.Dim()), got, errS, want, errG) {
			degenerate++
		}
	}
	if degenerate == 0 || degenerate > models/4 {
		t.Fatalf("%d of %d models degenerate; the draw should cover some but not most", degenerate, models)
	}
	t.Logf("%d models: %d degenerate", models, degenerate)
}
