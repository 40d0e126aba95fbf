package kalman

import (
	"fmt"
	"math"

	"mictrend/internal/linalg"
)

// kernel names the likelihood recursion LogLikFilterOpts runs.
type kernel uint8

const (
	genericKernel  kernel = iota // logLikGeneric: any model, any options
	smallKernel                  // logLikSmall: n ≤ 2, T = I
	seasonalKernel               // logLikSeasonal: the structural seasonal transition
)

// kernelFor picks the kernel LogLikFilterOpts runs for m over y with opts,
// and for the seasonal kernel the number of seasonal dummy states. The fast
// kernels take no OnStep callback and no missing observations; everything
// else runs the generic kernel.
func (m *Model) kernelFor(y []float64, opts LogLikOptions) (kernel, int) {
	if opts.OnStep != nil || hasNaN(y) {
		return genericKernel, 0
	}
	if m.Dim() <= 2 && isIdentity(m.T) {
		return smallKernel, 0
	}
	if ns := seasonalStates(m.T); ns > 0 {
		return seasonalKernel, ns
	}
	return genericKernel, 0
}

// seasonalStates returns the number ns ≥ 1 of seasonal dummy states when t
// is the structural seasonal transition, and 0 otherwise. The shape is the
// one ssm builds: row 0 is e₀ (the level random walk), row 1 holds −1 in
// columns 1…ns (γ'₁ = −Σγ_s), rows 2…ns shift by one (γ'_s = γ_{s−1}), and
// the remaining rows are an identity block (the intervention coefficients).
// A −0 counts as zero, as in the generic kernel's sparse form.
func seasonalStates(t *linalg.Matrix) int {
	n := t.Rows()
	if n < 2 {
		return 0
	}
	r1 := t.Row(1)
	ns := 0
	for ns+1 < n && r1[ns+1] == -1 {
		ns++
	}
	if ns == 0 {
		return 0
	}
	for i := 0; i < n; i++ {
		lo, hi, want := i, i+1, 1.0 // the entries of row i that are not zero
		switch {
		case i == 1:
			lo, hi, want = 1, ns+1, -1
		case i >= 2 && i <= ns:
			lo, hi = i-1, i
		}
		for j, v := range t.Row(i) {
			if (j >= lo && j < hi && v != want) || ((j < lo || j >= hi) && v != 0) {
				return 0
			}
		}
	}
	return ns
}

// prepareSeasonal sizes the seasonal kernel's flat n×n buffers.
func (ws *Workspace) prepareSeasonal(n int) {
	nn := n * n
	if cap(ws.sP) < nn {
		ws.sP = make([]float64, nn)
		ws.sPNew = make([]float64, nn)
		ws.sTP = make([]float64, nn)
		ws.sNext = make([]float64, nn)
		ws.sRQR = make([]float64, nn)
	}
	ws.sP = ws.sP[:nn]
	ws.sPNew = ws.sPNew[:nn]
	ws.sTP = ws.sTP[:nn]
	ws.sNext = ws.sNext[:nn]
	ws.sRQR = ws.sRQR[:nn]
}

// logLikSeasonal is logLikGeneric specialised to the structural seasonal
// transition with ns seasonal states (seasonalStates), for runs with no
// OnStep callback and no missing observations. The covariance and its
// products live in flat row-major buffers, and the products with T become
// index arithmetic instead of walks over its sparse form.
//
// Every value is computed with the generic kernel's terms in its order, so
// the result matches it bit for bit, error included
// (TestSeasonalPathMatchesGeneric):
//   - sums over the observation row skip its exact zeros, in ascending
//     index order, from a 0 seed;
//   - T·x is 0 + x on the single-entry rows and the 0-seeded sum of
//     x_s·(−1) on the dummy row; P·Tᵀ copies P's entries on the
//     single-entry columns and sums P_cs·(−1) from 0 on the dummy column;
//   - L = T − K·Z is merged over T's row pattern and the nonzero positions
//     of z, with the structure cached per pattern, exactly as buildL does;
//   - each entry of L·(P·Tᵀ)ᵀ adds its terms in ascending column order
//     from 0, and the symmetrisation groups them as AddSymmetrizeTrans.
func (m *Model) logLikSeasonal(y []float64, ws *Workspace, ns int) (LogLikResult, error) {
	n := m.Dim()
	ws.prepareRun(m, len(y))
	ws.prepareSeasonal(n)
	// The seasonal shape alone determines T, so T's sparse form, and the L
	// structure built from it per observation-row pattern, carry over from
	// the previous call when the shape has not changed.
	if ws.seasonalNS != ns || len(ws.tPtr) != n+1 {
		ws.loadT(m.T)
		ws.seasonalNS = ns
	}
	// T's −1 read back from the matrix: a runtime factor, as in the generic
	// kernel's products, rather than a constant the compiler may fold into
	// a negation (which differs from the product on a NaN's sign).
	minus := m.T.Row(1)[1]

	p, pNew, tp, next, rqr := ws.sP, ws.sPNew, ws.sTP, ws.sNext, ws.sRQR
	for i := 0; i < n; i++ {
		copy(p[i*n:(i+1)*n], m.P1.Row(i))
		copy(rqr[i*n:(i+1)*n], ws.rqr.Row(i))
	}
	a, ta, pzt, k := ws.a, ws.ta, ws.pzt, ws.k
	copy(a, m.A1)

	res := LogLikResult{V: ws.v, F: ws.f, Contributed: ws.contributed}
	var logF LogSum
	for t, yt := range y {
		z := m.Z(t)
		if len(z) != n {
			return LogLikResult{}, fmt.Errorf("kalman: Z(%d) has length %d, want %d", t, len(z), n)
		}
		zIdx := ws.zIdx[:0]
		for i, zi := range z {
			if zi != 0 {
				zIdx = append(zIdx, i)
			}
		}
		ws.zIdx = zIdx

		// Innovation and its variance: v = y − Z·a, P·Zᵀ, F = H + Z·P·Zᵀ.
		var za float64
		for _, i := range zIdx {
			za += z[i] * a[i]
		}
		v := yt - za
		for i := range pzt {
			pi := p[i*n : (i+1)*n]
			var s float64
			for _, j := range zIdx {
				s += pi[j] * z[j]
			}
			pzt[i] = s
		}
		f := m.H
		for _, i := range zIdx {
			f += z[i] * pzt[i]
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

		// Gain K = T·P·Zᵀ/F, then a ← T·a + K·v.
		seasonalMulVec(k, pzt, ns, minus)
		for i := range k {
			k[i] /= f
		}
		seasonalMulVec(ta, a, ns, minus)
		for i := range a {
			a[i] = ta[i] + k[i]*v
		}

		// P ← sym(L·(P·Tᵀ)ᵀ + RQRᵀ).
		seasonalMulTransT(tp, p, n, ns, minus)
		ws.buildL(z)
		mulLTransFlat(next, tp, ws.lPtr, ws.lIdx, ws.lVal, n)
		addSymmetrizeTransFlat(pNew, next, rqr, n)
		p, pNew = pNew, p
	}
	res.finish(logF)
	return res, nil
}

// seasonalMulVec stores T·x into dst for the seasonal transition with ns
// seasonal states: 0 + x on the single-entry rows, and on the dummy row the
// 0-seeded sum of x_s·minus (minus = T's −1), as mulVecT computes them.
func seasonalMulVec(dst, x []float64, ns int, minus float64) {
	dst[0] = 0 + x[0]
	var d float64
	for _, xs := range x[1 : ns+1] {
		d += xs * minus
	}
	dst[1] = d
	for s := 2; s <= ns; s++ {
		dst[s] = 0 + x[s-1]
	}
	for j := ns + 1; j < len(dst); j++ {
		dst[j] = 0 + x[j]
	}
}

// seasonalMulTransT stores P·Tᵀ into tp for the seasonal transition with ns
// seasonal states, as mulTransT computes it: row c copies P_c0, then holds
// the dummy column's 0-seeded sum of P_cs·minus (minus = T's −1), P's
// seasonal entries shifted by one, and the intervention entries in place.
// The dummy sums of four rows run side by side, so their dependency chains
// overlap.
func seasonalMulTransT(tp, p []float64, n, ns int, minus float64) {
	c := 0
	for ; c+4 <= n; c += 4 {
		p0, p1 := p[c*n:(c+1)*n], p[(c+1)*n:(c+2)*n]
		p2, p3 := p[(c+2)*n:(c+3)*n], p[(c+3)*n:(c+4)*n]
		p1, p2, p3 = p1[:len(p0)], p2[:len(p0)], p3[:len(p0)]
		var d0, d1, d2, d3 float64
		for s := 1; s <= ns; s++ {
			d0 += p0[s] * minus
			d1 += p1[s] * minus
			d2 += p2[s] * minus
			d3 += p3[s] * minus
		}
		tp[c*n+1], tp[(c+1)*n+1], tp[(c+2)*n+1], tp[(c+3)*n+1] = d0, d1, d2, d3
	}
	for ; c < n; c++ {
		var d float64
		for _, x := range p[c*n+1 : c*n+ns+1] {
			d += x * minus
		}
		tp[c*n+1] = d
	}
	for c := 0; c < n; c++ {
		pc, tc := p[c*n:(c+1)*n], tp[c*n:(c+1)*n]
		tc[0] = pc[0]
		for s := 2; s <= ns; s++ {
			tc[s] = pc[s-1]
		}
		for j := ns + 1; j < n; j++ {
			tc[j] = pc[j]
		}
	}
}

// mulLTransFlat stores L·tpᵀ into next, with L in sparse row-major form
// (lPtr, lIdx, lVal) and next and tp flat row-major n×n. Each entry adds
// L's row terms in ascending column order from 0 — the sums the generic
// kernel's row scatter forms. Rows of two to four terms, nearly all of a
// seasonal model's L, are summed in one expression per entry; longer rows
// accumulate four entries at a time in registers.
func mulLTransFlat(next, tp []float64, lPtr, lIdx []int, lVal []float64, n int) {
	for j := 0; j < n; j++ {
		idx, val := lIdx[lPtr[j]:lPtr[j+1]], lVal[lPtr[j]:lPtr[j+1]]
		val = val[:len(idx)]
		nj := next[j*n : (j+1)*n]
		switch len(idx) {
		case 2:
			r0, r1 := tp[idx[0]*n:][:len(nj)], tp[idx[1]*n:][:len(nj)]
			v0, v1 := val[0], val[1]
			for i := range nj {
				nj[i] = (0 + v0*r0[i]) + v1*r1[i]
			}
			continue
		case 3:
			r0, r1, r2 := tp[idx[0]*n:][:len(nj)], tp[idx[1]*n:][:len(nj)], tp[idx[2]*n:][:len(nj)]
			v0, v1, v2 := val[0], val[1], val[2]
			for i := range nj {
				nj[i] = ((0 + v0*r0[i]) + v1*r1[i]) + v2*r2[i]
			}
			continue
		case 4:
			r0, r1, r2, r3 := tp[idx[0]*n:][:len(nj)], tp[idx[1]*n:][:len(nj)], tp[idx[2]*n:][:len(nj)], tp[idx[3]*n:][:len(nj)]
			v0, v1, v2, v3 := val[0], val[1], val[2], val[3]
			for i := range nj {
				nj[i] = (((0 + v0*r0[i]) + v1*r1[i]) + v2*r2[i]) + v3*r3[i]
			}
			continue
		}
		i := 0
		for ; i+4 <= n; i += 4 {
			var s0, s1, s2, s3 float64
			for e, c := range idx {
				lv, r := val[e], tp[c*n+i:c*n+i+4]
				s0 += lv * r[0]
				s1 += lv * r[1]
				s2 += lv * r[2]
				s3 += lv * r[3]
			}
			nj[i], nj[i+1], nj[i+2], nj[i+3] = s0, s1, s2, s3
		}
		for ; i < n; i++ {
			var s float64
			for e, c := range idx {
				s += val[e] * tp[c*n+i]
			}
			nj[i] = s
		}
	}
}

// addSymmetrizeTransFlat is linalg's AddSymmetrizeTrans on flat row-major
// n×n buffers: dst = sym(srcᵀ + b), each off-diagonal pair grouped as
// ((src_ji + b_ij) + (src_ij + b_ji)) / 2.
func addSymmetrizeTransFlat(dst, src, b []float64, n int) {
	for i := 0; i < n; i++ {
		ii := i*n + i
		dst[ii] = src[ii] + b[ii]
		for j := i + 1; j < n; j++ {
			ij, ji := i*n+j, j*n+i
			v := ((src[ji] + b[ij]) + (src[ij] + b[ji])) / 2
			dst[ij] = v
			dst[ji] = v
		}
	}
}
