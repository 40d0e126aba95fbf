package kalman

import (
	"fmt"
	"math"

	"mictrend/internal/linalg"
)

// logLikSmall is logLikGeneric specialised to models with at most two states
// and T = I — the local level alone, or with one slope or level-shift
// regressor — with no OnStep callback and no missing observations. The state,
// its covariance, and RQRᵀ live in fixed-size arrays, so a step is a few
// dozen scalar operations with none of the sparse-structure bookkeeping.
//
// Every value is computed with the generic kernel's terms in its order, so
// the result matches it bit for bit (TestSmallPathMatchesGeneric):
//   - sums over the observation row skip its exact zeros, in ascending
//     index order, from a 0 seed;
//   - the sparse products with T = I become 0 + x (which turns −0 into +0);
//   - L = T − K·Z holds 1 − k_j·z_k where T and z overlap, 0 − k_j·z_k where
//     only z is nonzero, and the bare 1 of T elsewhere, and the covariance
//     update sums its row entries in ascending column order;
//   - the symmetrisation groups ((L·P)_10 + RQRᵀ_01) + ((L·P)_01 + RQRᵀ_10)
//     as AddSymmetrizeTrans does.
//
// A one-state model runs as a two-state one whose second state is inert: its
// observation entry is 0, so no sum reaches it and the first state's
// arithmetic is unchanged.
func (m *Model) logLikSmall(y []float64, ws *Workspace) (LogLikResult, error) {
	n := m.Dim()
	ws.prepareRun(m, len(y))
	var a [2]float64
	var p, rqr [2][2]float64
	for i := 0; i < n; i++ {
		a[i] = m.A1[i]
		copy(p[i][:n], m.P1.Row(i))
		copy(rqr[i][:n], ws.rqr.Row(i))
	}

	res := LogLikResult{V: ws.v, F: ws.f, Contributed: ws.contributed}
	var logF LogSum
	for t, yt := range y {
		z := m.Z(t)
		if len(z) != n {
			return LogLikResult{}, fmt.Errorf("kalman: Z(%d) has length %d, want %d", t, len(z), n)
		}
		z0 := z[0]
		var z1 float64
		if n == 2 {
			z1 = z[1]
		}
		nz0, nz1 := z0 != 0, z1 != 0

		// Innovation and its variance: v = y − Z·a, P·Zᵀ, F = H + Z·P·Zᵀ.
		var za, pz0, pz1 float64
		if nz0 {
			za += z0 * a[0]
			pz0 += p[0][0] * z0
			pz1 += p[1][0] * z0
		}
		if nz1 {
			za += z1 * a[1]
			pz0 += p[0][1] * z1
			pz1 += p[1][1] * z1
		}
		v := yt - za
		f := m.H
		if nz0 {
			f += z0 * pz0
		}
		if nz1 {
			f += z1 * pz1
		}
		if f <= 0 || math.IsNaN(f) {
			return LogLikResult{}, ErrDegenerate
		}
		res.V[t] = v
		res.F[t] = f
		if t >= m.DiffuseCount && !skipContains(m.SkipLik, t) {
			logF = logF.Add(f)
			res.contribute(t, v, f)
		}

		// Gain K = T·P·Zᵀ/F and state prediction a ← T·a + K·v.
		k0 := (0 + pz0) / f
		k1 := (0 + pz1) / f
		a[0] = (0 + a[0]) + k0*v
		a[1] = (0 + a[1]) + k1*v

		// L = T − K·Z; the entries outside T's and z's patterns are absent.
		l00, l11 := 1.0, 1.0
		var l01, l10 float64
		if nz0 {
			l00 = 1 - k0*z0
			l10 = 0 - k1*z0
		}
		if nz1 {
			l01 = 0 - k0*z1
			l11 = 1 - k1*z1
		}

		// P ← sym(L·P·Tᵀ + RQRᵀ) with P·Tᵀ = P.
		var n00, n01, n10, n11 float64
		n00 += l00 * p[0][0]
		n01 += l00 * p[0][1]
		if nz1 {
			n00 += l01 * p[1][0]
			n01 += l01 * p[1][1]
		}
		if nz0 {
			n10 += l10 * p[0][0]
			n11 += l10 * p[0][1]
		}
		n10 += l11 * p[1][0]
		n11 += l11 * p[1][1]
		off := ((n10 + rqr[0][1]) + (n01 + rqr[1][0])) / 2
		p = [2][2]float64{{n00 + rqr[0][0], off}, {off, n11 + rqr[1][1]}}
	}
	res.finish(logF)
	return res, nil
}

// isIdentity reports whether t is exactly the identity matrix (a −0 counts
// as zero, as in the generic kernel's sparse form).
func isIdentity(t *linalg.Matrix) bool {
	for i := 0; i < t.Rows(); i++ {
		for j, v := range t.Row(i) {
			if (i == j && v != 1) || (i != j && v != 0) {
				return false
			}
		}
	}
	return true
}

// hasNaN reports whether y has a missing (NaN) observation.
func hasNaN(y []float64) bool {
	for _, v := range y {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}
