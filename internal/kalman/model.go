// Package kalman implements the linear Gaussian state space machinery the
// paper's trend model (§V) rests on: the Kalman filter in prediction-error
// form for univariate observations, the fixed-interval state smoother, the
// prediction-error-decomposition log-likelihood, and multi-step forecasting.
//
// The model is
//
//	y_t     = Z_t·α_t + ε_t,          ε_t ~ N(0, H)
//	α_{t+1} = T·α_t  + R·η_t,         η_t ~ N(0, Q)
//
// with a possibly time-varying observation row Z_t (the paper's intervention
// regressor w_t lives there) and approximate diffuse initialization via a
// large P₁ plus a likelihood burn-in.
package kalman

import (
	"errors"
	"fmt"

	"mictrend/internal/linalg"
)

// DiffuseVariance is the large prior variance used for approximately diffuse
// initial state elements.
const DiffuseVariance = 1e7

// ErrDegenerate is returned when a filtering step encounters a non-positive
// prediction variance, which indicates an invalid model (e.g. all variances
// zero).
var ErrDegenerate = errors.New("kalman: non-positive prediction variance")

// Model is a univariate-observation linear Gaussian state space model.
type Model struct {
	// T is the n×n state transition matrix.
	T *linalg.Matrix
	// R is the n×r disturbance selection matrix.
	R *linalg.Matrix
	// Q is the r×r disturbance covariance.
	Q *linalg.Matrix
	// H is the observation noise variance.
	H float64
	// Z returns the 1×n observation row at time t. It must be valid for
	// t ≥ len(data) too when forecasting. The returned slice is read only
	// and must remain valid until the next call.
	Z func(t int) []float64
	// A1 is the initial state mean (length n).
	A1 []float64
	// P1 is the n×n initial state covariance.
	P1 *linalg.Matrix
	// DiffuseCount is the number of leading observations excluded from the
	// log-likelihood to absorb the approximate diffuse initialization.
	DiffuseCount int
	// SkipLik lists additional observation indices excluded from the
	// log-likelihood — used for diffuse state elements whose regressor first
	// activates mid-sample (the intervention coefficient λ).
	SkipLik []int
}

// Dim returns the state dimension.
func (m *Model) Dim() int { return len(m.A1) }

// Validate checks dimensional consistency.
func (m *Model) Validate() error {
	n := len(m.A1)
	if n == 0 {
		return errors.New("kalman: empty initial state")
	}
	if m.T == nil || m.T.Rows() != n || m.T.Cols() != n {
		return fmt.Errorf("kalman: T must be %dx%d", n, n)
	}
	if m.R == nil || m.R.Rows() != n {
		return fmt.Errorf("kalman: R must have %d rows", n)
	}
	r := m.R.Cols()
	if m.Q == nil || m.Q.Rows() != r || m.Q.Cols() != r {
		return fmt.Errorf("kalman: Q must be %dx%d", r, r)
	}
	if m.P1 == nil || m.P1.Rows() != n || m.P1.Cols() != n {
		return fmt.Errorf("kalman: P1 must be %dx%d", n, n)
	}
	if m.Z == nil {
		return errors.New("kalman: missing observation function Z")
	}
	if m.H < 0 {
		return errors.New("kalman: negative observation variance")
	}
	if m.DiffuseCount < 0 {
		return errors.New("kalman: negative diffuse count")
	}
	for _, idx := range m.SkipLik {
		if idx < 0 {
			return errors.New("kalman: negative SkipLik index")
		}
	}
	return nil
}

// FilterResult holds per-step filter output in prediction form: A[t] and
// P[t] are the one-step-ahead predicted state mean/covariance given data up
// to t−1; V, F are innovations and their variances; K and L feed the
// smoother.
type FilterResult struct {
	A [][]float64      // predicted state means, length T+1 (last is next-period prediction)
	P []*linalg.Matrix // predicted state covariances, length T+1
	V []float64        // innovations, length T (NaN where y was missing)
	// Contributed[t] is true when observation t entered the log-likelihood
	// (present, past the diffuse burn-in, and not in SkipLik).
	Contributed []bool
	F           []float64        // innovation variances, length T
	K           []*linalg.Matrix // Kalman gains (n×1), length T
	L           []*linalg.Matrix // L_t = T − K_t·Z_t, length T

	LogLik   float64 // prediction error decomposition log-likelihood
	LikCount int     // observations contributing to LogLik
}

// Filter runs the Kalman filter over y and keeps the per-step history the
// smoother and forecaster need. It is the likelihood kernel
// (LogLikFilterOpts) with an OnStep hook recording A, P, K and L; V, F,
// Contributed and the likelihood are the kernel's own. Missing observations
// are encoded as NaN and skipped (the state is propagated without an
// update).
func (m *Model) Filter(y []float64) (*FilterResult, error) {
	n := m.Dim()
	steps := len(y)
	res := &FilterResult{
		A: make([][]float64, steps+1),
		P: make([]*linalg.Matrix, steps+1),
		K: make([]*linalg.Matrix, steps),
		L: make([]*linalg.Matrix, steps),
	}
	record := func(t int, a, k []float64, p *linalg.Matrix) {
		res.A[t+1] = append([]float64(nil), a...)
		res.P[t+1] = p.Clone()
		// Gain K and L = T − K·Z; a missing step has K = 0 and L = T.
		kt, lt := linalg.NewMatrix(n, 1), m.T.Clone()
		if k != nil {
			z := m.Z(t)
			for i, ki := range k {
				kt.Set(i, 0, ki)
				for j, zj := range z {
					lt.Set(i, j, lt.At(i, j)-ki*zj)
				}
			}
		}
		res.K[t], res.L[t] = kt, lt
	}
	// A fresh workspace, because V, F and Contributed alias its buffers and
	// the result keeps them.
	lr, err := m.LogLikFilterOpts(y, NewWorkspace(), LogLikOptions{OnStep: record})
	if err != nil {
		return nil, err
	}
	res.A[0] = append([]float64(nil), m.A1...)
	res.P[0] = m.P1.Clone()
	res.V, res.F, res.Contributed = lr.V, lr.F, lr.Contributed
	res.LogLik, res.LikCount = lr.LogLik, lr.LikCount
	return res, nil
}
