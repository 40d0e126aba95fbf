// Package arima implements the paper's baseline forecaster: Gaussian
// ARIMA(p,d,q) models cast in Harvey state space form, fitted by exact
// maximum likelihood over a stationarity/invertibility-preserving partial
// autocorrelation reparametrization, with AIC grid search over orders ("the
// ARIMA model, where we determined the optimal parameters by using AIC").
package arima

import (
	"errors"
	"fmt"
	"math"

	"mictrend/internal/kalman"
	"mictrend/internal/linalg"
	"mictrend/internal/optimize"
	"mictrend/internal/stat"
)

// Order is an ARIMA(p,d,q) specification.
type Order struct {
	P, D, Q int
}

// String renders the order like "ARIMA(1,1,0)".
func (o Order) String() string { return fmt.Sprintf("ARIMA(%d,%d,%d)", o.P, o.D, o.Q) }

// Validate rejects negative or oversized orders.
func (o Order) Validate() error {
	if o.P < 0 || o.D < 0 || o.Q < 0 {
		return errors.New("arima: negative order")
	}
	if o.P > 5 || o.Q > 5 || o.D > 2 {
		return errors.New("arima: order too large for this implementation")
	}
	return nil
}

// Fit is a maximum-likelihood-fitted ARIMA model.
type Fit struct {
	Order Order
	// AR and MA hold the fitted φ and θ coefficients.
	AR, MA []float64
	// Var is the innovation variance σ̂² on the scaled differenced series.
	Var float64
	// Mean is the mean of the scaled differenced series, handled by
	// subtraction before the ARMA likelihood.
	Mean float64
	// LogLik is the maximized profile log-likelihood of the scaled
	// differenced series; AIC = −2·LogLik + 2·(p+q+1).
	LogLik float64
	AIC    float64

	scale    float64
	original []float64     // scaled original series (before differencing)
	diffed   []float64     // scaled differenced series
	model    *kalman.Model // at unit innovation variance
	filter   *kalman.FilterResult
}

// FitOrder fits ARIMA(p,d,q) to y by exact maximum likelihood.
func FitOrder(y []float64, order Order) (*Fit, error) {
	if err := order.Validate(); err != nil {
		return nil, err
	}
	minLen := order.D + order.P + order.Q + 4
	if len(y) < minLen {
		return nil, fmt.Errorf("arima: series length %d too short for %v", len(y), order)
	}

	scaled, scale := stat.Rescale(y)
	diffed := difference(scaled, order.D)
	mean := stat.Mean(diffed)
	centered := make([]float64, len(diffed))
	for i, v := range diffed {
		centered[i] = v - mean
	}

	// σ² is concentrated out: the model is filtered at unit innovation
	// variance and the search sees only the PACF coordinates, from 0.
	// ARIMA(0,d,0) needs none: one profile evaluation is the closed form.
	ws := kalman.NewWorkspace()
	profile := func(ar, ma []float64) (m *kalman.Model, logLik, sigma2 float64, err error) {
		if m, err = buildARMA(ar, ma); err != nil {
			return nil, 0, 0, err
		}
		lr, err := m.LogLikFilter(centered, ws)
		if err == nil {
			logLik, sigma2, err = kalman.Concentrate(lr.SumLogF, lr.SumV2F, lr.LikCount)
		}
		return m, logLik, sigma2, err
	}
	x := make([]float64, order.P+order.Q)
	if len(x) > 0 {
		objective := func(params []float64) float64 {
			for _, p := range params {
				if p < -30 || p > 30 {
					return math.Inf(1)
				}
			}
			_, logLik, _, err := profile(decodeParams(params, order))
			if err != nil {
				return math.Inf(1)
			}
			return -logLik
		}
		res, err := optimize.NelderMead(objective, x, optimize.NelderMeadOptions{MaxIter: 600, Step: 0.8})
		if err != nil {
			return nil, err
		}
		if math.IsInf(res.F, 1) {
			return nil, errors.New("arima: likelihood optimization failed")
		}
		x = res.X
	}
	// Forecast means and innovations do not depend on σ² when H = 0, so the
	// fitted model stays at unit variance.
	ar, ma := decodeParams(x, order)
	m, logLik, sigma2, err := profile(ar, ma)
	if err != nil {
		return nil, err
	}
	fr, err := m.Filter(centered)
	if err != nil {
		return nil, err
	}
	fit := &Fit{
		Order: order, AR: ar, MA: ma, Var: sigma2, Mean: mean,
		LogLik: logLik,
		AIC:    -2*logLik + 2*float64(order.P+order.Q+1),
		scale:  scale, original: scaled, diffed: centered,
		model: m, filter: fr,
	}
	return fit, nil
}

// SelectOptions bounds the AIC order grid.
type SelectOptions struct {
	MaxP, MaxD, MaxQ int // defaults 2, 1, 2
}

func (o SelectOptions) withDefaults() SelectOptions {
	if o.MaxP <= 0 {
		o.MaxP = 2
	}
	if o.MaxD < 0 {
		o.MaxD = 0
	} else if o.MaxD == 0 {
		o.MaxD = 1
	}
	if o.MaxQ <= 0 {
		o.MaxQ = 2
	}
	return o
}

// Select chooses the differencing order with the classic
// variance-minimization rule (difference while it reduces the series
// variance — AIC values are not comparable across d because differencing
// consumes observations) and then AIC-minimizes over the (p, q) grid,
// mirroring the paper's "optimal parameters by using AIC".
func Select(y []float64, opts SelectOptions) (*Fit, error) {
	opts = opts.withDefaults()
	d := chooseDifferencing(y, opts.MaxD)
	var best *Fit
	for p := 0; p <= opts.MaxP; p++ {
		for q := 0; q <= opts.MaxQ; q++ {
			fit, err := FitOrder(y, Order{P: p, D: d, Q: q})
			if err != nil {
				continue // some orders are unfittable on short series
			}
			if best == nil || fit.AIC < best.AIC {
				best = fit
			}
		}
	}
	if best == nil {
		return nil, errors.New("arima: no order could be fitted")
	}
	return best, nil
}

// chooseDifferencing returns the smallest d (≤ maxD) at which further
// differencing stops reducing the sample variance.
func chooseDifferencing(y []float64, maxD int) int {
	bestD := 0
	cur := append([]float64(nil), y...)
	bestVar := stat.Variance(cur)
	if math.IsNaN(bestVar) {
		return 0
	}
	for d := 1; d <= maxD; d++ {
		cur = difference(cur, 1)
		v := stat.Variance(cur)
		if math.IsNaN(v) || v >= bestVar {
			break
		}
		bestD, bestVar = d, v
	}
	return bestD
}

// Forecast returns h-step-ahead predictions in data units.
func (f *Fit) Forecast(h int) ([]float64, error) {
	if h <= 0 {
		return nil, fmt.Errorf("arima: non-positive horizon %d", h)
	}
	fc, err := f.model.Forecast(f.filter, len(f.diffed), h)
	if err != nil {
		return nil, err
	}
	// Add the mean back onto the differenced forecasts, then integrate d
	// times using the tail of the (scaled) original series.
	diffFC := make([]float64, h)
	for i := range diffFC {
		diffFC[i] = fc.Mean[i] + f.Mean
	}
	out := integrate(f.original, diffFC, f.Order.D)
	for i := range out {
		out[i] *= f.scale
	}
	return out, nil
}

// decodeParams maps raw optimizer parameters to stationary AR and
// invertible MA coefficients.
func decodeParams(params []float64, order Order) (ar, ma []float64) {
	ar = pacfToAR(params[:order.P])
	// Invertible MA: transform like an AR polynomial and flip signs so the
	// MA polynomial 1+θ₁B+… has all roots outside the unit circle.
	ma = pacfToAR(params[order.P:])
	for i := range ma {
		ma[i] = -ma[i]
	}
	return ar, ma
}

// pacfToAR maps unbounded raw values to partial autocorrelations via tanh
// and then to AR coefficients with the Durbin–Levinson recursion, which
// guarantees a stationary polynomial.
func pacfToAR(raw []float64) []float64 {
	p := len(raw)
	if p == 0 {
		return nil
	}
	pacf := make([]float64, p)
	for i, r := range raw {
		pacf[i] = math.Tanh(r)
	}
	a := make([]float64, p)
	prev := make([]float64, p)
	for k := 1; k <= p; k++ {
		a[k-1] = pacf[k-1]
		for j := 0; j < k-1; j++ {
			a[j] = prev[j] - pacf[k-1]*prev[k-2-j]
		}
		copy(prev, a[:k])
	}
	return a
}

// difference applies d-th order differencing.
func difference(y []float64, d int) []float64 {
	out := append([]float64(nil), y...)
	for i := 0; i < d; i++ {
		next := make([]float64, len(out)-1)
		for j := range next {
			next[j] = out[j+1] - out[j]
		}
		out = next
	}
	return out
}

// integrate inverts d-th order differencing of a forecast continuation,
// using the tail of the undifferenced history.
func integrate(history, diffFC []float64, d int) []float64 {
	out := append([]float64(nil), diffFC...)
	for i := 0; i < d; i++ {
		// The level we integrate from is the last value of the (d-1-i)-times
		// differenced history; reconstruct it by differencing the original.
		base := difference(history, d-1-i)
		last := base[len(base)-1]
		for j := range out {
			last += out[j]
			out[j] = last
		}
	}
	return out
}

// buildARMA assembles the Harvey state space form of a zero-mean ARMA(p,q)
// with unit innovation variance: state dimension r = max(p, q+1),
// T[i][0] = φ_{i+1}, superdiagonal identity, R = (1, θ₁, …)ᵀ, Z = (1,0,…).
func buildARMA(ar, ma []float64) (*kalman.Model, error) {
	p, q := len(ar), len(ma)
	r := p
	if q+1 > r {
		r = q + 1
	}
	if r == 0 {
		r = 1
	}
	tm := linalg.NewMatrix(r, r)
	for i := 0; i < r; i++ {
		if i < p {
			tm.Set(i, 0, ar[i])
		}
		if i < r-1 {
			tm.Set(i, i+1, 1)
		}
	}
	rm := linalg.NewMatrix(r, 1)
	rm.Set(0, 0, 1)
	for i := 0; i < q; i++ {
		rm.Set(i+1, 0, ma[i])
	}
	qm := linalg.NewMatrixFrom(1, 1, []float64{1})

	p1, err := stationaryCovariance(tm, rm)
	if err != nil {
		return nil, err
	}
	z := make([]float64, r)
	z[0] = 1
	m := &kalman.Model{
		T: tm, R: rm, Q: qm, H: 0,
		Z:  func(int) []float64 { return z },
		A1: make([]float64, r),
		P1: p1,
	}
	return m, nil
}

// stationaryCovariance solves P = T·P·Tᵀ + R·Rᵀ via
// vec(P) = (I − T⊗T)⁻¹·vec(R·Rᵀ).
func stationaryCovariance(t, r *linalg.Matrix) (*linalg.Matrix, error) {
	n := t.Rows()
	n2 := n * n
	kron := linalg.NewMatrix(n2, n2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tij := t.At(i, j)
			if tij == 0 {
				continue
			}
			for k := 0; k < n; k++ {
				for l := 0; l < n; l++ {
					tkl := t.At(k, l)
					if tkl == 0 {
						continue
					}
					kron.Set(i*n+k, j*n+l, tij*tkl)
				}
			}
		}
	}
	lhs := linalg.Identity(n2)
	lhs.Sub(lhs, kron)
	rhs := make([]float64, n2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rhs[i*n+j] = r.At(i, 0) * r.At(j, 0)
		}
	}
	lu, err := linalg.NewLU(lhs)
	if err != nil {
		return nil, fmt.Errorf("arima: non-stationary transition matrix: %w", err)
	}
	sol, err := lu.SolveVec(rhs)
	if err != nil {
		return nil, err
	}
	p := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p.Set(i, j, sol[i*n+j])
		}
	}
	p.Symmetrize()
	return p, nil
}
