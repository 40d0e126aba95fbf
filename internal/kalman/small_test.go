package kalman

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"mictrend/internal/linalg"
)

// randomSmallModel draws a model the small-state path accepts (n ≤ 2,
// T = I) over the shapes the structural fits produce and beyond: the level
// alone or with a slope or level-shift regressor from any change point
// (including 0 and past the end), occasional zero or unusual observation
// entries, diffuse or checkpoint-like non-diagonal initial covariances,
// relative variances from e⁻¹⁰ to e¹⁰, and degenerate all-zero variances.
func randomSmallModel(rng *rand.Rand, steps int) *Model {
	n := 1 + rng.IntN(2)
	r := 1 + rng.IntN(2)
	rm := linalg.NewMatrix(n, r)
	rm.Set(0, 0, 1)
	if rng.IntN(4) == 0 {
		for i := 0; i < n; i++ {
			for j := 0; j < r; j++ {
				rm.Set(i, j, rng.NormFloat64())
			}
		}
	}
	qm := linalg.NewMatrix(r, r)
	for j := 0; j < r; j++ {
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
		b := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		p1.MulTransB(b, b)
		if n == 2 && rng.IntN(2) == 0 {
			p1.Set(1, 1, DiffuseVariance)
		}
	case 2: // zero prior: with H = 0 the first step degenerates
		qm.Set(0, 0, 0)
	default: // non-diagonal, not even symmetric
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				p1.Set(i, j, 0.1*rng.NormFloat64())
			}
			p1.Set(i, i, 1+rng.Float64())
		}
	}

	z0 := 1.0
	switch rng.IntN(8) {
	case 0:
		z0 = 0
	case 1:
		z0 = rng.NormFloat64()
	}
	cp := rng.IntN(steps + 2)
	slope := rng.IntN(2) == 0
	zBuf := make([]float64, n)
	zf := func(t int) []float64 {
		zBuf[0] = z0
		if n == 2 {
			switch {
			case t < cp:
				zBuf[1] = 0
			case slope:
				zBuf[1] = float64(t - cp + 1)
			default:
				zBuf[1] = 1
			}
		}
		return zBuf
	}
	var skip []int
	if n == 2 && rng.IntN(2) == 0 {
		skip = []int{cp}
	}
	return &Model{
		T: linalg.Identity(n), R: rm, Q: qm, H: h, Z: zf,
		A1: a1, P1: p1,
		DiffuseCount: rng.IntN(3),
		SkipLik:      skip,
	}
}

// TestSmallPathMatchesGeneric pins the small-state path to the generic
// sparse kernel bit for bit on random one- and two-state models: every
// output field, and the error (ErrDegenerate) when the recursion breaks.
func TestSmallPathMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 2))
	wsSmall, wsGen := NewWorkspace(), NewWorkspace()
	const models = 12000
	degenerate := 0
	for c := 0; c < models; c++ {
		steps := rng.IntN(61)
		m := randomSmallModel(rng, steps)
		y := make([]float64, steps)
		for i := range y {
			y[i] = math.Exp(-3+6*rng.Float64()) * rng.NormFloat64()
			if i > steps/2 && rng.IntN(3) > 0 {
				y[i] += 5
			}
		}
		small, errS := m.logLikSmall(y, wsSmall)
		gen, errG := m.logLikGeneric(y, wsGen, LogLikOptions{})
		if requireSameResult(t, fmt.Sprintf("model %d (n=%d)", c, m.Dim()), small, errS, gen, errG) {
			degenerate++
		}
	}
	if degenerate == 0 || degenerate > models/4 {
		t.Fatalf("%d of %d models degenerate; the draw should cover some but not most", degenerate, models)
	}
}

// TestSmallPathDispatch checks which kernel LogLikFilterOpts selects for
// each model and option shape — the small-state path, the seasonal path, or
// the generic kernel — and that the result equals the generic kernel's bit
// for bit either way.
func TestSmallPathDispatch(t *testing.T) {
	y := testSeries(43, 3)
	yMissing := append([]float64(nil), y...)
	yMissing[10] = math.NaN()
	shift := levelInterventionModel(20, 1, 0.2)
	nonIdentity := localLevelModel(1, 0.2)
	nonIdentity.T = linalg.NewMatrixFrom(1, 1, []float64{0.9})
	seasonal := structuralModel(12, 20, 1, 0.2, 0.05)
	dense := structuralModel(12, 20, 1, 0.2, 0.05)
	dense.T = dense.T.Clone()
	dense.T.Set(0, 1, 0.5)
	misShaped := structuralModel(12, 20, 1, 0.2, 0.05)
	misShaped.T = misShaped.T.Clone()
	misShaped.T.Set(3, 2, 0) // the shift row γ'₃ = γ₂ loses its entry
	misShaped.T.Set(3, 1, 1)
	onStep := LogLikOptions{OnStep: func(int, []float64, []float64, *linalg.Matrix) {}}
	cases := []struct {
		name   string
		m      *Model
		y      []float64
		opts   LogLikOptions
		kernel kernel
	}{
		{"level", localLevelModel(1, 0.2), y, LogLikOptions{}, smallKernel},
		{"level-shift", shift, y, LogLikOptions{}, smallKernel},
		{"missing", shift, yMissing, LogLikOptions{}, genericKernel},
		{"on-step", shift, y, onStep, genericKernel},
		{"non-identity", nonIdentity, y, LogLikOptions{}, genericKernel},
		{"seasonal", seasonal, y, LogLikOptions{}, seasonalKernel},
		{"seasonal-on-step", seasonal, y, onStep, genericKernel},
		{"seasonal-missing", seasonal, yMissing, LogLikOptions{}, genericKernel},
		{"dense-T", dense, y, LogLikOptions{}, genericKernel},
		{"mis-shaped-shift-row", misShaped, y, LogLikOptions{}, genericKernel},
	}
	for _, tc := range cases {
		if got, _ := tc.m.kernelFor(tc.y, tc.opts); got != tc.kernel {
			t.Errorf("%s: kernel %d, want %d", tc.name, got, tc.kernel)
		}
		got, err := tc.m.LogLikFilterOpts(tc.y, NewWorkspace(), tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := tc.m.logLikGeneric(tc.y, NewWorkspace(), tc.opts)
		if err != nil {
			t.Fatalf("%s: generic: %v", tc.name, err)
		}
		if math.Float64bits(got.LogLik) != math.Float64bits(want.LogLik) {
			t.Errorf("%s: LogLik %v != generic %v", tc.name, got.LogLik, want.LogLik)
		}
	}
}

// TestSmallPathZeroAllocs pins the small-state path at zero allocations
// once the workspace has its buffers.
func TestSmallPathZeroAllocs(t *testing.T) {
	m := levelInterventionModel(20, 1, 0.2)
	y := testSeries(43, 3)
	ws := NewWorkspace()
	if _, err := m.LogLikFilter(y, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.LogLikFilter(y, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("small-state LogLikFilter allocates %.1f objects/op, want 0", allocs)
	}
}

// levelInterventionModel builds the nonseasonal candidate model of the scan:
// local level plus a slope-shift λ activating at cp.
func levelInterventionModel(cp int, h, q float64) *Model {
	tm := linalg.NewMatrix(2, 2)
	tm.Set(0, 0, 1)
	tm.Set(1, 1, 1)
	r := linalg.NewMatrixFrom(2, 1, []float64{1, 0})
	qm := linalg.NewMatrixFrom(1, 1, []float64{q})
	p1 := linalg.NewMatrix(2, 2)
	p1.Set(0, 0, DiffuseVariance)
	p1.Set(1, 1, DiffuseVariance)
	zBuf := []float64{1, 0}
	z := func(t int) []float64 {
		if t < cp {
			zBuf[1] = 0
		} else {
			zBuf[1] = float64(t - cp + 1)
		}
		return zBuf
	}
	skip := cp
	if skip < 1 {
		skip = 1
	}
	return &Model{
		T: tm, R: r, Q: qm, H: h, Z: z,
		A1: make([]float64, 2), P1: p1,
		DiffuseCount: 1,
		SkipLik:      []int{skip},
	}
}
