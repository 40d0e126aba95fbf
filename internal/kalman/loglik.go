package kalman

import (
	"errors"
	"fmt"
	"math"

	"mictrend/internal/linalg"
)

// This file implements the Kalman recursion, once. The maximum-likelihood
// fits in internal/ssm and internal/arima evaluate the filter hundreds of
// times per search, and each evaluation only needs the log-likelihood and
// the innovation sequence, so LogLikFilter reuses one Workspace across calls
// and allocates nothing. It also exploits the sparsity of the structural
// model's transition matrix: the local-level row, the seasonal rotation
// rows, and the identity intervention block give T only O(n) nonzeros, so
// T·a, T·P and the fused T·P·Lᵀ products cost O(n·nnz) instead of the dense
// n³. Filter is this kernel plus history capture: it records the smoother
// inputs (A, P, K, L) through the OnStep hook and takes V, F and the
// likelihood from the kernel's result. The dense textbook loop the kernel
// was derived from survives only as the test oracle (referenceFilter in
// reference_test.go), which every path matches bitwise up to the sign of
// zero.
//
// Two kinds of model skip the generic sparse machinery; each specialised
// kernel repeats the generic recursion term for term and so matches it bit
// for bit. Non-seasonal structural models (at most two states, T = I) run
// on fixed-size arrays (logLikSmall, small.go — see DESIGN.md, "Small-state
// Kalman path"). Seasonal structural models, whose T is the level,
// dummy-seasonal and intervention pattern ssm builds, run on flat buffers
// with T's products as index arithmetic (logLikSeasonal, seasonal.go —
// DESIGN.md, "Seasonal Kalman path"). Both need OnStep nil and no missing
// observations; kernelFor makes the choice from the model's shape alone.
// Every path is exact.
//
// Every path also returns Σ log F and Σ V²/F over the contributing
// observations, so the concentrated likelihood needs no second pass. No path
// takes a log per step: each multiplies the F_t into one LogSum, a product
// kept as mantissa and exponent (logsum.go), and logs it once at the end,
// where LogLik = −½(n·log 2π + Σ log F + Σ V²/F) is derived from the sums.
// All paths multiply the same F in the same order, so they still agree bit
// for bit, and so does the prefix scanner that resumes a stored product.

// LogLikResult is the lightweight output of LogLikFilter. V, F, and
// Contributed alias Workspace buffers: they are valid until the next
// LogLikFilter call with the same workspace.
type LogLikResult struct {
	// LogLik is the prediction error decomposition log-likelihood,
	// −½(LikCount·log 2π + SumLogF + SumV2F), derived once from the sums.
	LogLik float64
	// LikCount is the number of observations contributing to LogLik.
	LikCount int
	// V holds the innovations (NaN where y was missing).
	V []float64
	// F holds the innovation variances.
	F []float64
	// Contributed[t] is true when observation t entered the log-likelihood.
	Contributed []bool
	// SumLogF and SumV2F are Σ log F_t and Σ V_t²/F_t over the contributing
	// observations: the two sums the concentrated (profile) likelihood is
	// built from. SumV2F is accumulated in ascending time order; SumLogF is
	// the log, taken once, of the product of the F_t multiplied in
	// ascending time order (LogSum).
	SumLogF, SumV2F float64
}

// LogLikOptions tunes a LogLikFilterOpts run. The zero value reproduces
// LogLikFilter exactly.
type LogLikOptions struct {
	// OnStep, when non-nil, is invoked after every completed step t with the
	// one-step-ahead predicted state a_{t+1} and covariance P_{t+1}, and the
	// step's Kalman gain k_t = T·P_t·Z_tᵀ/F_t (nil when y_t is missing). The
	// slices/matrix are workspace-owned: callers must copy what they keep.
	// Filter records its smoother inputs through this hook, and the
	// prefix-checkpointed candidate scan records filter state at every
	// candidate boundary with it in a single pass.
	OnStep func(t int, a, k []float64, p *linalg.Matrix)
}

// Workspace holds every scratch buffer LogLikFilter needs, so that repeated
// likelihood evaluations allocate nothing after the first call. A workspace
// grows on demand and may be reused across models of different dimensions
// and series of different lengths. The generic kernel rebuilds the sparse
// transition representation on every call (an O(n²) scan, negligible
// against the filtering pass); the seasonal kernel keeps it, and the L
// structure built from it, while the seasonal shape is unchanged, because
// that shape alone determines T. Either way a workspace never goes stale
// when the caller swaps models. A Workspace is not safe for concurrent use.
type Workspace struct {
	// Sparse row-major (CSR) representation of T. tSingle[i] holds the
	// column index when row i is a single entry of value 1 (the local
	// level, seasonal subdiagonal, and intervention identity rows of the
	// structural model), −1 otherwise.
	tPtr    []int
	tIdx    []int
	tVal    []float64
	tSingle []int

	// State and per-step vectors (length n).
	a, ta, pzt, tpz, k []float64
	// zIdx lists the nonzero positions of the current observation row.
	zIdx []int
	// lPtr/lIdx/lVal hold L = T − K·Z in sparse row-major form. The merged
	// structure and the gain-independent base values depend only on T and
	// the nonzero pattern of z, which is constant between intervention
	// breaks, so they are cached (lValid, prevZIdx) and each step only
	// refreshes the entries carrying a −k_j·z[k] term, listed by lZPos
	// (position in lVal), lZRow (j), and lZCol (k).
	lPtr     []int
	lIdx     []int
	lVal     []float64
	lBase    []float64
	lZPos    []int
	lZRow    []int
	lZCol    []int
	prevZIdx []int
	lValid   bool

	// Covariance matrices and the constant RQRᵀ term (n×n; rq is n×r).
	p, tp, next, rqr, rq *linalg.Matrix

	// Seasonal-kernel scratch, flat row-major n×n: the covariance and its
	// double buffer, P·Tᵀ, the product L·(P·Tᵀ)ᵀ, and RQRᵀ. seasonalNS is
	// the seasonal state count of the transition the CSR arrays hold, 0 when
	// they may hold any matrix.
	sP, sPNew, sTP, sNext, sRQR []float64
	seasonalNS                  int

	// Result buffers (length = series length).
	v, f        []float64
	contributed []bool
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// prepare sizes every buffer for state dimension n, disturbance dimension r,
// and series length steps, reusing existing capacity.
func (ws *Workspace) prepare(n, r, steps int) {
	if cap(ws.a) < n {
		ws.a = make([]float64, n)
		ws.ta = make([]float64, n)
		ws.pzt = make([]float64, n)
		ws.tpz = make([]float64, n)
		ws.k = make([]float64, n)
		ws.zIdx = make([]int, 0, n)
		ws.lPtr = make([]int, 0, n+1)
		ws.lIdx = make([]int, 0, 2*n*n)
		ws.lVal = make([]float64, 0, 2*n*n)
		ws.tPtr = make([]int, 0, n+1)
		ws.tIdx = make([]int, 0, n*n)
		ws.tVal = make([]float64, 0, n*n)
	}
	ws.a = ws.a[:n]
	ws.ta = ws.ta[:n]
	ws.pzt = ws.pzt[:n]
	ws.tpz = ws.tpz[:n]
	ws.k = ws.k[:n]
	// A model of another state dimension (1↔2, 12↔13 as a fit scan
	// alternates between the intervention-free and the candidate models)
	// reshapes the matrices in place.
	ws.p = ws.p.Resize(n, n)
	ws.tp = ws.tp.Resize(n, n)
	ws.next = ws.next.Resize(n, n)
	ws.rqr = ws.rqr.Resize(n, n)
	ws.rq = ws.rq.Resize(n, r)
	if cap(ws.v) < steps {
		ws.v = make([]float64, steps)
		ws.f = make([]float64, steps)
		ws.contributed = make([]bool, steps)
	}
	ws.v = ws.v[:steps]
	ws.f = ws.f[:steps]
	ws.contributed = ws.contributed[:steps]
	for i := range ws.contributed {
		ws.contributed[i] = false
	}
}

// loadT rebuilds the CSR representation of t and invalidates the cached L
// structure.
func (ws *Workspace) loadT(t *linalg.Matrix) {
	n := t.Rows()
	ws.tPtr = ws.tPtr[:0]
	ws.tIdx = ws.tIdx[:0]
	ws.tVal = ws.tVal[:0]
	ws.tSingle = ws.tSingle[:0]
	ws.tPtr = append(ws.tPtr, 0)
	for i := 0; i < n; i++ {
		row := t.Row(i)
		start := len(ws.tIdx)
		for j, v := range row {
			if v != 0 {
				ws.tIdx = append(ws.tIdx, j)
				ws.tVal = append(ws.tVal, v)
			}
		}
		ws.tPtr = append(ws.tPtr, len(ws.tIdx))
		if len(ws.tIdx) == start+1 && ws.tVal[start] == 1 {
			ws.tSingle = append(ws.tSingle, ws.tIdx[start])
		} else {
			ws.tSingle = append(ws.tSingle, -1)
		}
	}
	ws.seasonalNS = 0
	ws.lValid = false
}

// mulVecT stores T·x into dst using the sparse rows. Matches
// linalg.MulVec(dst, T, x) bitwise: skipped entries are exact zeros. The
// sparse arrays are hoisted into locals so stores through dst cannot force
// the compiler to reload them (dst may alias a workspace field).
func (ws *Workspace) mulVecT(dst, x []float64) {
	tPtr, tIdx, tVal := ws.tPtr, ws.tIdx, ws.tVal
	e := tPtr[0]
	for i := range dst {
		hi := tPtr[i+1]
		var s float64
		for ; e < hi; e++ {
			s += tVal[e] * x[tIdx[e]]
		}
		dst[i] = s
	}
}

// mulMatT stores T·src into dst. Matches dst.Mul(T, src), which already
// skips zero entries of T row by row. Rows of T holding a single 1 — the
// local level, the seasonal subdiagonal, and the intervention identity
// block, i.e. most of the structural model — turn into straight row copies
// (0 + 1·x = x up to the sign of zero).
func (ws *Workspace) mulMatT(dst, src *linalg.Matrix) {
	tPtr, tIdx, tVal := ws.tPtr, ws.tIdx, ws.tVal
	n := len(tPtr) - 1
	e := tPtr[0]
	for i := 0; i < n; i++ {
		di := dst.Row(i)
		hi := tPtr[i+1]
		if hi-e == 1 && tVal[e] == 1 {
			copy(di, src.Row(tIdx[e]))
			e = hi
			continue
		}
		for j := range di {
			di[j] = 0
		}
		for ; e < hi; e++ {
			av := tVal[e]
			sk := src.Row(tIdx[e])
			for j, bv := range sk[:len(di)] {
				di[j] += av * bv
			}
		}
	}
}

// mulTransT stores a·Tᵀ into dst. Matches dst.MulTransB(a, T): per element
// the sum runs over T's row pattern in ascending column order, and the
// skipped terms are exact zeros.
func (ws *Workspace) mulTransT(dst, a *linalg.Matrix) {
	tPtr, tIdx, tVal, single := ws.tPtr, ws.tIdx, ws.tVal, ws.tSingle
	n := len(tPtr) - 1
	for i := 0; i < n; i++ {
		ai := a.Row(i)
		di := dst.Row(i)
		for j := 0; j < n; j++ {
			if c := single[j]; c >= 0 {
				di[j] = ai[c]
				continue
			}
			var s float64
			for e := tPtr[j]; e < tPtr[j+1]; e++ {
				s += ai[tIdx[e]] * tVal[e]
			}
			di[j] = s
		}
	}
}

// buildL assembles L = T − K·Z in sparse row-major form: each row is the
// merge of T's row pattern with the nonzero positions of z, with values
// T[j,k] − k_j·z[k] — the same expression Filter records densely. Keeping
// the subtraction fused per element (rather than computing T·P·Tᵀ −
// T·P·Zᵀ·Kᵀ as two dense products) avoids the catastrophic cancellation the
// two-term form suffers under the 1e7 diffuse prior.
func (ws *Workspace) buildL(z []float64) {
	if !ws.lValid || !intsEqual(ws.prevZIdx, ws.zIdx) {
		ws.buildLStructure()
		// Entries without a z term hold their base value from here on;
		// only the z-term entries change from step to step.
		ws.lVal = append(ws.lVal[:0], ws.lBase...)
	}
	lVal, k, lBase, lZRow, lZCol := ws.lVal, ws.k, ws.lBase, ws.lZRow, ws.lZCol
	for m, pos := range ws.lZPos {
		lVal[pos] = lBase[pos] - k[lZRow[m]]*z[lZCol[m]]
	}
}

// buildLStructure merges T's row patterns with the current zIdx into
// lPtr/lIdx, records the gain-independent base values (T[j,k] where z[k] is
// zero, 0 or T[j,k] where it is not), and lists every entry needing a
// per-step −k_j·z[k] refresh.
func (ws *Workspace) buildLStructure() {
	tPtr, tIdx, tVal := ws.tPtr, ws.tIdx, ws.tVal
	zIdx := ws.zIdx
	n := len(tPtr) - 1
	ws.lIdx = ws.lIdx[:0]
	ws.lBase = ws.lBase[:0]
	ws.lZPos = ws.lZPos[:0]
	ws.lZRow = ws.lZRow[:0]
	ws.lZCol = ws.lZCol[:0]
	ws.lPtr = append(ws.lPtr[:0], 0)
	for j := 0; j < n; j++ {
		e, hi := tPtr[j], tPtr[j+1]
		zi := 0
		for e < hi || zi < len(zIdx) {
			switch {
			case zi >= len(zIdx) || (e < hi && tIdx[e] < zIdx[zi]):
				ws.lIdx = append(ws.lIdx, tIdx[e])
				ws.lBase = append(ws.lBase, tVal[e])
				e++
			case e >= hi || zIdx[zi] < tIdx[e]:
				k := zIdx[zi]
				ws.lIdx = append(ws.lIdx, k)
				ws.lZPos = append(ws.lZPos, len(ws.lBase))
				ws.lZRow = append(ws.lZRow, j)
				ws.lZCol = append(ws.lZCol, k)
				ws.lBase = append(ws.lBase, 0)
				zi++
			default:
				k := tIdx[e]
				ws.lIdx = append(ws.lIdx, k)
				ws.lZPos = append(ws.lZPos, len(ws.lBase))
				ws.lZRow = append(ws.lZRow, j)
				ws.lZCol = append(ws.lZCol, k)
				ws.lBase = append(ws.lBase, tVal[e])
				e++
				zi++
			}
		}
		ws.lPtr = append(ws.lPtr, len(ws.lIdx))
	}
	ws.prevZIdx = append(ws.prevZIdx[:0], zIdx...)
	ws.lValid = true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// LogLikFilter runs the Kalman filter over y computing only the
// log-likelihood, the innovations, and their variances, without
// allocating: all scratch lives in ws and is reused across calls. Missing
// observations are encoded as NaN and skipped. If ws is nil a fresh
// workspace is used.
func (m *Model) LogLikFilter(y []float64, ws *Workspace) (LogLikResult, error) {
	return m.LogLikFilterOpts(y, ws, LogLikOptions{})
}

// LogLikFilterOpts is LogLikFilter with options: a per-step state callback
// (OnStep). With the zero options it is exactly LogLikFilter.
//
// When y has no missing values and OnStep is nil, two model shapes run on
// specialised kernels whose results are bitwise the generic recursion's:
// models with at most two states and T = I — every non-seasonal structural
// fit — on fixed-size scalars (logLikSmall), and the structural seasonal
// model — every seasonal fit, with or without interventions — on the
// seasonal kernel (logLikSeasonal).
func (m *Model) LogLikFilterOpts(y []float64, ws *Workspace, opts LogLikOptions) (LogLikResult, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	if err := m.Validate(); err != nil {
		return LogLikResult{}, err
	}
	switch kern, ns := m.kernelFor(y, opts); kern {
	case smallKernel:
		return m.logLikSmall(y, ws)
	case seasonalKernel:
		return m.logLikSeasonal(y, ws, ns)
	}
	return m.logLikGeneric(y, ws, opts)
}

// prepareRun sizes ws for m over steps observations and precomputes the
// constant RQRᵀ into reused buffers.
func (ws *Workspace) prepareRun(m *Model, steps int) {
	ws.prepare(m.Dim(), m.Q.Cols(), steps)
	ws.rq.Mul(m.R, m.Q)
	ws.rqr.MulTransB(ws.rq, m.R)
}

// contribute enters observation t's v²/f into Σ V²/F; the kernel multiplies
// its f into the pass's Σ log F product (LogSum), which finish logs once.
func (r *LogLikResult) contribute(t int, v, f float64) {
	r.SumV2F += v * v / f
	r.LikCount++
	r.Contributed[t] = true
}

// finish ends a kernel pass: it takes Σ log F from the pass's product logF
// and derives the log-likelihood −½(n·log 2π + Σ log F + Σ V²/F) from the
// sums. With no contributing observation both stay 0.
func (r *LogLikResult) finish(logF LogSum) {
	if r.LikCount == 0 {
		return
	}
	r.SumLogF = logF.Sum()
	r.LogLik = -0.5 * (float64(r.LikCount)*log2Pi + r.SumLogF + r.SumV2F)
}

// log2Pi is the Gaussian normalising constant log 2π of every likelihood
// term.
var log2Pi = math.Log(2 * math.Pi)

// Concentrate turns Σ log F and Σ V²/F over the n contributing observations
// of a filter run at unit scale variance into the profile log-likelihood and
// σ̂² = ΣV²/F ÷ n (Harvey 1989, §3.4); n = 0 is an error. ssm and arima both
// use it, so every fit and prefix score agrees bitwise on identical sums.
func Concentrate(sumLogF, sumV2F float64, n int) (logLik, sigma2 float64, err error) {
	if n == 0 {
		return 0, 0, errors.New("kalman: no likelihood contributions")
	}
	nf := float64(n)
	sigma2 = sumV2F / nf
	// Floor σ̂²: a perfectly fitted series would send the profile likelihood
	// to +∞ and a model rebuilt at σ̂² to negative covariances against the
	// diffuse prior (1e7). 1e-6 is below any noise on a unit-scaled series.
	const sigmaFloor = 1e-6
	if !(sigma2 > sigmaFloor) {
		sigma2 = sigmaFloor
	}
	logLik = -0.5*nf*log2Pi - 0.5*sumLogF - 0.5*nf*(math.Log(sigma2)+1)
	return logLik, sigma2, nil
}

// logLikGeneric is the sparse kernel behind LogLikFilterOpts for any model
// shape and options.
func (m *Model) logLikGeneric(y []float64, ws *Workspace, opts LogLikOptions) (LogLikResult, error) {
	n := m.Dim()
	steps := len(y)
	ws.prepareRun(m, steps)
	ws.loadT(m.T)

	copy(ws.a, m.A1)
	ws.p.CopyFrom(m.P1)
	a := ws.a
	p, next := ws.p, ws.next

	res := LogLikResult{V: ws.v, F: ws.f, Contributed: ws.contributed}
	var logF LogSum
	for t := 0; t < steps; t++ {
		z := m.Z(t)
		if len(z) != n {
			return LogLikResult{}, fmt.Errorf("kalman: Z(%d) has length %d, want %d", t, len(z), n)
		}
		ws.zIdx = ws.zIdx[:0]
		for i, zi := range z {
			if zi != 0 {
				ws.zIdx = append(ws.zIdx, i)
			}
		}

		if math.IsNaN(y[t]) {
			// Missing observation: pure prediction step.
			res.V[t] = math.NaN()
			res.F[t] = math.Inf(1)
			ws.mulVecT(ws.ta, a)
			copy(a, ws.ta)
			ws.mulMatT(ws.tp, p)
			ws.mulTransT(next, ws.tp)
			next.AddSymmetrize(ws.rqr)
			p, next = next, p
			if opts.OnStep != nil {
				opts.OnStep(t, a, nil, p)
			}
			continue
		}

		// Innovation and its variance.
		var zaDot float64
		for _, i := range ws.zIdx {
			zaDot += z[i] * a[i]
		}
		v := y[t] - zaDot
		for i := 0; i < n; i++ {
			pi := p.Row(i)
			var s float64
			for _, j := range ws.zIdx {
				s += pi[j] * z[j]
			}
			ws.pzt[i] = s
		}
		f := m.H
		for _, i := range ws.zIdx {
			f += z[i] * ws.pzt[i]
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

		// Gain K = T·P·Zᵀ/F.
		ws.mulVecT(ws.tpz, ws.pzt)
		for i := 0; i < n; i++ {
			ws.k[i] = ws.tpz[i] / f
		}

		// State prediction: a ← T·a + K·v; P ← sym(T·P·Lᵀ + RQRᵀ). The
		// covariance product is evaluated transposed: tp holds P·Tᵀ, which
		// equals (T·P)ᵀ bitwise because P is kept exactly symmetric, the
		// product L·(T·P)ᵀ = (T·P·Lᵀ)ᵀ scatters L's sparse rows over
		// contiguous tp rows (sequential adds instead of index gathers),
		// and AddSymmetrizeTrans folds the transpose back while adding
		// RQRᵀ — term for term the sums of the dense T·P·Lᵀ. The CSR
		// arrays live in locals so the stores into next cannot force
		// reloads.
		ws.mulVecT(ws.ta, a)
		for i := 0; i < n; i++ {
			a[i] = ws.ta[i] + ws.k[i]*v
		}
		ws.mulTransT(ws.tp, p)
		ws.buildL(z)
		lPtr, lIdx, lVal := ws.lPtr, ws.lIdx, ws.lVal
		e := lPtr[0]
		for j := 0; j < n; j++ {
			nj := next.Row(j)
			for i := range nj {
				nj[i] = 0
			}
			hi := lPtr[j+1]
			for ; e < hi; e++ {
				lv := lVal[e]
				tc := ws.tp.Row(lIdx[e])
				for i, tv := range tc[:len(nj)] {
					nj[i] += lv * tv
				}
			}
		}
		p.AddSymmetrizeTrans(next, ws.rqr)
		if opts.OnStep != nil {
			opts.OnStep(t, a, ws.k, p)
		}
	}
	res.finish(logF)
	return res, nil
}

// skipContains reports whether t is listed in skip. The list holds at most
// one index per intervention, so a linear scan beats a per-call map.
func skipContains(skip []int, t int) bool {
	for _, s := range skip {
		if s == t {
			return true
		}
	}
	return false
}
