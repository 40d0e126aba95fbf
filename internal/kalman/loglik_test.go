package kalman

import (
	"math"
	"math/rand/v2"
	"testing"

	"mictrend/internal/linalg"
)

// localLevelModel builds a plain local-level model.
func localLevelModel(h, q float64) *Model {
	z := []float64{1}
	return &Model{
		T:            linalg.NewMatrixFrom(1, 1, []float64{1}),
		R:            linalg.NewMatrixFrom(1, 1, []float64{1}),
		Q:            linalg.NewMatrixFrom(1, 1, []float64{q}),
		H:            h,
		Z:            func(t int) []float64 { return z },
		A1:           []float64{0},
		P1:           linalg.NewMatrixFrom(1, 1, []float64{DiffuseVariance}),
		DiffuseCount: 1,
	}
}

// structuralModel builds a local level + dummy seasonal + slope-shift
// intervention model, mirroring what internal/ssm assembles, so the fast
// path is exercised on the exact sparsity pattern it optimizes for.
func structuralModel(period, cp int, h, qXi, qOmega float64) *Model {
	n := 1 + (period - 1) + 1
	base := n - 1
	tm := linalg.NewMatrix(n, n)
	tm.Set(0, 0, 1)
	for s := 1; s <= period-1; s++ {
		tm.Set(1, s, -1)
	}
	for s := 2; s <= period-1; s++ {
		tm.Set(s, s-1, 1)
	}
	tm.Set(base, base, 1)
	r := linalg.NewMatrix(n, 2)
	r.Set(0, 0, 1)
	r.Set(1, 1, 1)
	q := linalg.NewMatrix(2, 2)
	q.Set(0, 0, qXi)
	q.Set(1, 1, qOmega)
	p1 := linalg.NewMatrix(n, n)
	for s := 0; s < period; s++ {
		p1.Set(s, s, DiffuseVariance)
	}
	p1.Set(base, base, DiffuseVariance)
	zBuf := make([]float64, n)
	zBuf[0] = 1
	zBuf[1] = 1
	z := func(t int) []float64 {
		if t < cp {
			zBuf[base] = 0
		} else {
			zBuf[base] = float64(t - cp + 1)
		}
		return zBuf
	}
	skip := cp
	if skip < period {
		skip = period
	}
	return &Model{
		T: tm, R: r, Q: q, H: h, Z: z,
		A1: make([]float64, n), P1: p1,
		DiffuseCount: period,
		SkipLik:      []int{skip},
	}
}

// denseRandomModel builds a fully dense stable model with a time-varying
// observation row, so the fast path is also validated off the structural
// sparsity pattern it was designed around.
func denseRandomModel(n int, seed uint64) *Model {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	tm := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tm.Set(i, j, 0.5*rng.NormFloat64()/float64(n))
		}
		tm.Set(i, i, 0.8)
	}
	r := linalg.NewMatrix(n, n)
	q := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		r.Set(i, i, 1)
		q.Set(i, i, 0.1+0.1*float64(i))
	}
	p1 := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		p1.Set(i, i, 2)
	}
	zBuf := make([]float64, n)
	z := func(t int) []float64 {
		for i := range zBuf {
			zBuf[i] = math.Sin(float64(t+i) / 3)
		}
		zBuf[0] = 1
		return zBuf
	}
	return &Model{
		T: tm, R: r, Q: q, H: 0.5, Z: z,
		A1: make([]float64, n), P1: p1,
	}
}

func testSeries(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, seed+7))
	y := make([]float64, n)
	level := 10.0
	for t := range y {
		level += rng.NormFloat64() * 0.3
		y[t] = level + 2*math.Sin(2*math.Pi*float64(t)/12) + rng.NormFloat64()
	}
	return y
}

// compareFastPath checks that LogLikFilter reproduces the dense reference
// filter on m/y.
func compareFastPath(t *testing.T, name string, m *Model, y []float64, ws *Workspace) {
	t.Helper()
	full, err := referenceFilter(m, y)
	if err != nil {
		t.Fatalf("%s: referenceFilter: %v", name, err)
	}
	fast, err := m.LogLikFilter(y, ws)
	if err != nil {
		t.Fatalf("%s: LogLikFilter: %v", name, err)
	}
	tol := 1e-12 * math.Max(1, math.Abs(full.LogLik))
	if math.Abs(fast.LogLik-full.LogLik) > tol {
		t.Errorf("%s: LogLik fast %v != full %v (diff %g)", name, fast.LogLik, full.LogLik, fast.LogLik-full.LogLik)
	}
	if fast.LikCount != full.LikCount {
		t.Errorf("%s: LikCount fast %d != full %d", name, fast.LikCount, full.LikCount)
	}
	for i := range y {
		if fast.Contributed[i] != full.Contributed[i] {
			t.Errorf("%s: Contributed[%d] fast %v != full %v", name, i, fast.Contributed[i], full.Contributed[i])
		}
		switch {
		case math.IsNaN(full.V[i]):
			if !math.IsNaN(fast.V[i]) {
				t.Errorf("%s: V[%d] fast %v, want NaN", name, i, fast.V[i])
			}
		case math.Abs(fast.V[i]-full.V[i]) > 1e-12*math.Max(1, math.Abs(full.V[i])):
			t.Errorf("%s: V[%d] fast %v != full %v", name, i, fast.V[i], full.V[i])
		}
		if !math.IsInf(full.F[i], 1) && math.Abs(fast.F[i]-full.F[i]) > 1e-12*math.Max(1, math.Abs(full.F[i])) {
			t.Errorf("%s: F[%d] fast %v != full %v", name, i, fast.F[i], full.F[i])
		}
	}
}

// filterCase is one model/series pair the kernels are checked on.
type filterCase struct {
	name string
	m    *Model
	y    []float64
}

// filterCases covers every kernel: the small and seasonal paths, the
// generic path's missing data and mid-sample intervention, and a dense
// time-varying model off the structural sparsity pattern.
func filterCases() []filterCase {
	y := testSeries(43, 3)
	yMissing := testSeries(43, 5)
	for _, i := range []int{0, 7, 20, 21, 42} {
		yMissing[i] = math.NaN()
	}
	return []filterCase{
		{"local-level", localLevelModel(1, 0.2), y},
		{"local-level-missing", localLevelModel(1, 0.2), yMissing},
		{"seasonal", structuralModel(12, len(y)+1, 1, 0.2, 0.05), y},
		{"seasonal-intervention", structuralModel(12, 20, 1, 0.2, 0.05), y},
		{"seasonal-intervention-missing", structuralModel(12, 20, 1, 0.2, 0.05), yMissing},
		{"intervention-at-zero", structuralModel(12, 0, 1, 0.2, 0.05), y},
		{"dense-random", denseRandomModel(5, 17), testSeries(60, 9)},
	}
}

func TestLogLikFilterMatchesFilter(t *testing.T) {
	ws := NewWorkspace() // one workspace reused across every case
	for _, tc := range filterCases() {
		compareFastPath(t, tc.name, tc.m, tc.y, ws)
	}
}

func TestLogLikFilterNilWorkspace(t *testing.T) {
	m := localLevelModel(1, 0.3)
	y := testSeries(30, 11)
	full, err := referenceFilter(m, y)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := m.LogLikFilter(y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast.LogLik-full.LogLik) > 1e-12*math.Abs(full.LogLik) {
		t.Fatalf("LogLik fast %v != full %v", fast.LogLik, full.LogLik)
	}
}

func TestLogLikFilterDegenerate(t *testing.T) {
	m := localLevelModel(0, 0) // all variances zero: F hits zero
	m.P1.Set(0, 0, 0)
	y := testSeries(10, 13)
	if _, err := m.LogLikFilter(y, NewWorkspace()); err == nil {
		t.Fatal("expected ErrDegenerate for an all-zero-variance model")
	}
}

// TestConcentrate pins the one concentration formula: the profile
// log-likelihood at σ̂² = ΣV²/F ÷ n, the floor on σ̂², and the error when
// nothing contributed.
func TestConcentrate(t *testing.T) {
	if _, _, err := Concentrate(0, 0, 0); err == nil {
		t.Fatal("zero contributions accepted")
	}
	ll, s2, err := Concentrate(1.5, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := -2*math.Log(2*math.Pi) - 0.75 - 2*(math.Log(2)+1); s2 != 2 || math.Abs(ll-want) > 1e-12 {
		t.Fatalf("Concentrate(1.5, 8, 4) = (%v, %v), want (%v, 2)", ll, s2, want)
	}
	for _, sumV2F := range []float64{0, 1e-9, math.NaN()} {
		ll, s2, err := Concentrate(0, sumV2F, 10)
		if err != nil {
			t.Fatal(err)
		}
		if want := -5*math.Log(2*math.Pi) - 5*(math.Log(1e-6)+1); s2 != 1e-6 || math.Abs(ll-want) > 1e-9 {
			t.Fatalf("ΣV²/F = %v: got (%v, %v), want (%v, 1e-6)", sumV2F, ll, s2, want)
		}
	}
}

// TestLogLikFilterZeroAllocs verifies the steady state allocates nothing:
// after a warm-up call every subsequent evaluation reuses workspace buffers.
func TestLogLikFilterZeroAllocs(t *testing.T) {
	m := structuralModel(12, 20, 1, 0.2, 0.05)
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
		t.Fatalf("LogLikFilter steady state allocates %.1f objects/op, want 0", allocs)
	}
}

// TestWorkspaceResizes checks a workspace survives switching between models
// of different dimensions and series of different lengths.
func TestWorkspaceResizes(t *testing.T) {
	ws := NewWorkspace()
	big := structuralModel(12, 20, 1, 0.2, 0.05)
	small := localLevelModel(1, 0.2)
	yLong := testSeries(60, 21)
	yShort := testSeries(20, 23)
	compareFastPath(t, "big-long", big, yLong, ws)
	compareFastPath(t, "small-short", small, yShort, ws)
	compareFastPath(t, "big-short", big, yShort, ws)
	compareFastPath(t, "small-long", small, yLong, ws)
}

// TestLogLikFilterOptsOnStep checks the checkpoint hook fires once per step
// with the post-update state, and with the step's gain exactly when the
// observation is present.
func TestLogLikFilterOptsOnStep(t *testing.T) {
	m := localLevelModel(1, 0.5)
	y := testSeries(120, 37)
	for _, i := range []int{0, 5, 60, 61} {
		y[i] = math.NaN()
	}
	calls := 0
	var lastA float64
	var lastP *linalg.Matrix
	_, err := m.LogLikFilterOpts(y, nil, LogLikOptions{
		OnStep: func(step int, a, k []float64, p *linalg.Matrix) {
			if step != calls {
				t.Fatalf("OnStep(%d) after %d calls, want ascending steps", step, calls)
			}
			calls++
			if missing := math.IsNaN(y[step]); (k == nil) != missing {
				t.Fatalf("OnStep(%d): gain %v on a step with missing=%v", step, k, missing)
			}
			if k != nil && len(k) != m.Dim() {
				t.Fatalf("OnStep(%d): gain has length %d, want %d", step, len(k), m.Dim())
			}
			lastA = a[0]
			lastP = p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(y) {
		t.Fatalf("OnStep fired %d times, want %d", calls, len(y))
	}
	// The final callback state is the one-step-ahead prediction the
	// smoother/forecaster would start from; for the local level it must
	// track the series scale.
	if math.Abs(lastA-y[len(y)-1]) > 10 {
		t.Fatalf("final predicted level %v far from series end %v", lastA, y[len(y)-1])
	}
	if lastP == nil || lastP.Rows() != 1 {
		t.Fatal("OnStep covariance missing")
	}
}
