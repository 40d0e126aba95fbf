package kalman

import (
	"fmt"
	"math"
	"testing"

	"mictrend/internal/linalg"
)

// This file keeps the dense textbook filter recursion as the test oracle:
// every kernel behind LogLikFilterOpts, and Filter's history capture on top
// of it, must reproduce it bitwise up to the sign of zero. Its likelihood
// takes Σ log F as the kernels do, through one LogSum; the per-step sum of
// logs it replaced stays as a tolerance oracle (perStepLogLik).

// referenceFilter is the dense textbook filter loop: every product is a full
// linalg operation and every step allocates its history afresh, so nothing
// in it depends on the kernels' sparsity bookkeeping. Missing observations
// are encoded as NaN and skipped (the state is propagated without an
// update).
func referenceFilter(m *Model, y []float64) (*FilterResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.Dim()
	steps := len(y)
	res := &FilterResult{
		A:           make([][]float64, steps+1),
		P:           make([]*linalg.Matrix, steps+1),
		V:           make([]float64, steps),
		F:           make([]float64, steps),
		K:           make([]*linalg.Matrix, steps),
		L:           make([]*linalg.Matrix, steps),
		Contributed: make([]bool, steps),
	}
	skip := make(map[int]bool, len(m.SkipLik))
	for _, idx := range m.SkipLik {
		skip[idx] = true
	}

	// RQRᵀ is constant: precompute.
	rq := linalg.NewMatrix(n, m.Q.Cols())
	rq.Mul(m.R, m.Q)
	rqr := linalg.NewMatrix(n, n)
	rqr.MulTransB(rq, m.R)

	// The likelihood sums: Σ log F as the kernels take it, one product
	// logged at the end, and Σ V²/F in ascending time order.
	var logF LogSum
	var sumV2F float64

	a := append([]float64(nil), m.A1...)
	p := m.P1.Clone()
	// Scratch buffers reused across steps.
	pzt := make([]float64, n)    // P·Zᵀ
	ta := make([]float64, n)     // T·a
	tp := linalg.NewMatrix(n, n) // T·P

	for t := 0; t < steps; t++ {
		res.A[t] = append([]float64(nil), a...)
		res.P[t] = p.Clone()
		z := m.Z(t)
		if len(z) != n {
			return nil, fmt.Errorf("kalman: Z(%d) has length %d, want %d", t, len(z), n)
		}

		if math.IsNaN(y[t]) {
			// Missing observation: pure prediction step.
			res.V[t] = math.NaN()
			res.F[t] = math.Inf(1)
			res.K[t] = linalg.NewMatrix(n, 1)
			res.L[t] = m.T.Clone()
			ta = linalg.MulVec(ta, m.T, a)
			copy(a, ta)
			tp.Mul(m.T, p)
			next := linalg.NewMatrix(n, n)
			next.MulTransB(tp, m.T)
			next.Add(next, rqr)
			next.Symmetrize()
			p = next
			continue
		}

		// Innovation and its variance.
		var zaDot float64
		for i, zi := range z {
			zaDot += zi * a[i]
		}
		v := y[t] - zaDot
		// pzt = P·Zᵀ.
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += p.At(i, j) * z[j]
			}
			pzt[i] = s
		}
		f := m.H
		for i, zi := range z {
			f += zi * pzt[i]
		}
		if f <= 0 || math.IsNaN(f) {
			return nil, ErrDegenerate
		}
		res.V[t] = v
		res.F[t] = f
		if t >= m.DiffuseCount && !skip[t] {
			logF = logF.Add(f)
			sumV2F += v * v / f
			res.LikCount++
			res.Contributed[t] = true
		}

		// Gain K = T·P·Zᵀ/F and L = T − K·Z.
		k := linalg.NewMatrix(n, 1)
		tpz := linalg.MulVec(nil, m.T, pzt)
		for i := 0; i < n; i++ {
			k.Set(i, 0, tpz[i]/f)
		}
		res.K[t] = k
		l := m.T.Clone()
		for i := 0; i < n; i++ {
			ki := k.At(i, 0)
			for j := 0; j < n; j++ {
				l.Set(i, j, l.At(i, j)-ki*z[j])
			}
		}
		res.L[t] = l

		// State prediction: a ← T·a + K·v; P ← T·P·Lᵀ + RQRᵀ.
		ta = linalg.MulVec(ta, m.T, a)
		for i := 0; i < n; i++ {
			a[i] = ta[i] + k.At(i, 0)*v
		}
		tp.Mul(m.T, p)
		next := linalg.NewMatrix(n, n)
		next.MulTransB(tp, l)
		next.Add(next, rqr)
		next.Symmetrize()
		p = next
	}
	res.A[steps] = append([]float64(nil), a...)
	res.P[steps] = p
	if res.LikCount > 0 {
		res.LogLik = -0.5 * (float64(res.LikCount)*math.Log(2*math.Pi) + logF.Sum() + sumV2F)
	}
	return res, nil
}

// perStepLogLik is the likelihood with one log per step, as the kernels took
// it before they multiplied F into a LogSum: Σ −½(log 2π + log F + V²/F)
// over the contributing steps in ascending time order, kept as a tolerance
// oracle. It also returns Σ log F taken the same way, and Σ |log F| + the
// other terms' magnitude, the scale both ways' rounding errors grow with:
// it stays meaningful when logs of F below and above 1 cancel.
func perStepLogLik(v, f []float64, contributed []bool) (logLik, sumLogF, scale float64) {
	for t, c := range contributed {
		if c {
			logF := math.Log(f[t])
			v2f := v[t] * v[t] / f[t]
			logLik += -0.5 * (math.Log(2*math.Pi) + logF + v2f)
			sumLogF += logF
			scale += math.Log(2*math.Pi) + math.Abs(logF) + v2f
		}
	}
	return logLik, sumLogF, scale
}

// armaModel builds the Harvey state space form of a zero-mean ARMA(p, q)
// model with innovation variance sigma2, as internal/arima does: state
// dimension max(p, q+1), the AR coefficients down T's first column, an
// identity superdiagonal, R = (1, θ₁, …, θ_q)ᵀ, Z = e₁, H = 0, and P₁ the
// stationary covariance (iterated here to its fixed point).
func armaModel(ar, ma []float64, sigma2 float64) *Model {
	n := max(len(ar), len(ma)+1)
	tm := linalg.NewMatrix(n, n)
	for i, phi := range ar {
		tm.Set(i, 0, phi)
	}
	for i := 0; i+1 < n; i++ {
		tm.Set(i, i+1, 1)
	}
	r := linalg.NewMatrix(n, 1)
	r.Set(0, 0, 1)
	for i, theta := range ma {
		r.Set(i+1, 0, theta)
	}
	q := linalg.NewMatrixFrom(1, 1, []float64{sigma2})
	rq := linalg.NewMatrix(n, 1)
	rq.Mul(r, q)
	rqr := linalg.NewMatrix(n, n)
	rqr.MulTransB(rq, r)
	p1 := rqr.Clone()
	tp := linalg.NewMatrix(n, n)
	for i := 0; i < 2000; i++ {
		tp.Mul(tm, p1)
		next := linalg.NewMatrix(n, n)
		next.MulTransB(tp, tm)
		next.Add(next, rqr)
		next.Symmetrize()
		p1 = next
	}
	z := make([]float64, n)
	z[0] = 1
	return &Model{
		T: tm, R: r, Q: q, H: 0,
		Z:  func(int) []float64 { return z },
		A1: make([]float64, n), P1: p1,
	}
}

// sameFloat is bitwise equality up to the sign of zero, with NaN equal to
// NaN.
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameMatrix(a, b *linalg.Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		if !sameFloats(a.Row(i), b.Row(i)) {
			return false
		}
	}
	return true
}

// TestFilterMatchesReference pins Filter, the kernel plus history capture,
// to the dense reference loop: every FilterResult field bitwise up to the
// sign of zero, on every kernel's cases plus ARMA(2,2) shapes with and
// without missing data.
func TestFilterMatchesReference(t *testing.T) {
	y := testSeries(43, 3)
	for i := range y {
		y[i] -= 10 // roughly centred, as arima filters its series
	}
	yMissing := append([]float64(nil), y...)
	for _, i := range []int{0, 9, 10, 30} {
		yMissing[i] = math.NaN()
	}
	arma := armaModel([]float64{0.5, -0.3}, []float64{0.4, 0.2}, 0.8)
	cases := append(filterCases(),
		filterCase{"arma22", arma, y},
		filterCase{"arma22-missing", arma, yMissing},
	)
	for _, tc := range cases {
		want, err := referenceFilter(tc.m, tc.y)
		if err != nil {
			t.Fatalf("%s: referenceFilter: %v", tc.name, err)
		}
		got, err := tc.m.Filter(tc.y)
		if err != nil {
			t.Fatalf("%s: Filter: %v", tc.name, err)
		}
		if !sameFloat(got.LogLik, want.LogLik) || got.LikCount != want.LikCount {
			t.Errorf("%s: LogLik %v (%d obs), reference %v (%d obs)", tc.name, got.LogLik, got.LikCount, want.LogLik, want.LikCount)
		}
		// The product-form likelihood stays within 1e-13 of the per-step
		// logs, relative to the terms' scale.
		if ll, _, scale := perStepLogLik(got.V, got.F, got.Contributed); math.Abs(got.LogLik-ll) > 1e-13*scale {
			t.Errorf("%s: LogLik %v, per-step logs %v (scale %.3g)", tc.name, got.LogLik, ll, scale)
		}
		if len(got.A) != len(want.A) || len(got.P) != len(want.P) {
			t.Fatalf("%s: %d/%d predictions, reference %d/%d", tc.name, len(got.A), len(got.P), len(want.A), len(want.P))
		}
		for i := range want.A {
			if !sameFloats(got.A[i], want.A[i]) {
				t.Errorf("%s: A[%d] = %v, reference %v", tc.name, i, got.A[i], want.A[i])
			}
			if !sameMatrix(got.P[i], want.P[i]) {
				t.Errorf("%s: P[%d] = %v, reference %v", tc.name, i, got.P[i], want.P[i])
			}
		}
		if !sameFloats(got.V, want.V) || !sameFloats(got.F, want.F) {
			t.Errorf("%s: V/F differ from the reference", tc.name)
		}
		if len(got.Contributed) != len(want.Contributed) || len(got.K) != len(want.K) || len(got.L) != len(want.L) {
			t.Fatalf("%s: history lengths differ from the reference", tc.name)
		}
		for i := range want.K {
			if got.Contributed[i] != want.Contributed[i] {
				t.Errorf("%s: Contributed[%d] = %v, reference %v", tc.name, i, got.Contributed[i], want.Contributed[i])
			}
			if !sameMatrix(got.K[i], want.K[i]) {
				t.Errorf("%s: K[%d] = %v, reference %v", tc.name, i, got.K[i], want.K[i])
			}
			if !sameMatrix(got.L[i], want.L[i]) {
				t.Errorf("%s: L[%d] = %v, reference %v", tc.name, i, got.L[i], want.L[i])
			}
		}
	}
}
