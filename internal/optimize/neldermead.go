// Package optimize provides derivative-free minimizers used for maximum
// likelihood estimation of the state space model hyperparameters: a
// Nelder–Mead simplex and Brent's method, which polishes a one-parameter
// minimum inside a bracket.
package optimize

import (
	"errors"
	"math"
)

// ErrInvalidInput is returned when a minimizer is called with unusable
// arguments (empty start point, inverted bracket, …).
var ErrInvalidInput = errors.New("optimize: invalid input")

// Result reports the outcome of a minimization. The X of a result from a
// Workspace method aliases the workspace: it is valid until the
// workspace's next minimization, so a caller keeping it copies it.
type Result struct {
	X          []float64 // best point found
	F          float64   // objective value at X
	Iterations int       // iterations performed
	Evals      int       // objective evaluations
	Converged  bool      // true if the tolerance was reached before MaxIter
}

// NelderMeadOptions tunes the simplex search. Zero values select defaults.
type NelderMeadOptions struct {
	MaxIter int     // default 500·dim
	TolF    float64 // spread of simplex values to stop at; default 1e-10
	TolX    float64 // spread of simplex points to stop at; default 1e-8
	Step    float64 // initial simplex edge length; default 0.5
	// StepAbsolute makes Step the literal per-axis perturbation of the
	// initial simplex instead of the historical relative one
	// (Step·|x0[i]|, or Step where x0[i] is zero). A caller starting near a
	// known optimum wants a small absolute simplex: the relative rule would
	// blow the simplex up in proportion to the coordinates' magnitudes and
	// forfeit the head start, since the search's cost is dominated by
	// shrinking the simplex back down to tolerance.
	StepAbsolute bool
}

func (o NelderMeadOptions) withDefaults(dim int) NelderMeadOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 500 * dim
	}
	if o.TolF <= 0 {
		o.TolF = 1e-10
	}
	if o.TolX <= 0 {
		o.TolX = 1e-8
	}
	if o.Step <= 0 {
		o.Step = 0.5
	}
	return o
}

// Workspace holds the buffers of NelderMead and Brent, so that repeated
// minimizations allocate nothing once the buffers have grown to the
// problem's dimension. A Result's X aliases them (see Result). What a
// workspace held before never changes a minimization's outcome. The zero
// value is ready to use; a Workspace is not safe for concurrent use.
type Workspace struct {
	vertices                []float64   // (dim+1)·dim simplex coordinates
	points                  [][]float64 // the simplex's vertices, rows of vertices
	values                  []float64   // objective value at each vertex
	centroid, trial, trial2 []float64
	x                       []float64 // Result.X
}

// NelderMead minimizes f starting from x0 on a fresh workspace, so the
// result's X is the caller's own.
func NelderMead(f func([]float64) float64, x0 []float64, opts NelderMeadOptions) (Result, error) {
	return new(Workspace).NelderMead(f, x0, opts)
}

// NelderMead minimizes f starting from x0 using the standard
// reflection/expansion/contraction/shrink simplex method with adaptive
// coefficients. The objective may return +Inf or NaN to reject a point
// (NaN is treated as +Inf), which lets callers encode hard constraints.
// x0 is only read, and f must not keep the slices it is passed.
func (w *Workspace) NelderMead(f func([]float64) float64, x0 []float64, opts NelderMeadOptions) (Result, error) {
	dim := len(x0)
	if dim == 0 {
		return Result{}, ErrInvalidInput
	}
	opts = opts.withDefaults(dim)
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	// Standard coefficients (adaptive variant for higher dimensions).
	alpha := 1.0                         // reflection
	beta := 1.0 + 2.0/float64(dim)       // expansion
	gamma := 0.75 - 1.0/(2*float64(dim)) // contraction
	delta := 1.0 - 1.0/float64(dim)      // shrink
	if dim <= 2 {
		beta, gamma, delta = 2.0, 0.5, 0.5
	}

	// Build the initial simplex: x0 plus one perturbed vertex per axis.
	w.size(dim)
	points, values := w.points, w.values
	copy(points[0], x0)
	values[0] = eval(points[0])
	for i := 0; i < dim; i++ {
		p := points[i+1]
		copy(p, x0)
		switch {
		case opts.StepAbsolute:
			p[i] += opts.Step
		case p[i] != 0:
			p[i] += opts.Step * math.Abs(p[i])
		default:
			p[i] = opts.Step
		}
		values[i+1] = eval(p)
	}

	order := func() (best, worst, secondWorst int) {
		best, worst = 0, 0
		for i := 1; i <= dim; i++ {
			if values[i] < values[best] {
				best = i
			}
			if values[i] > values[worst] {
				worst = i
			}
		}
		secondWorst = best
		for i := 0; i <= dim; i++ {
			if i != worst && values[i] > values[secondWorst] {
				secondWorst = i
			}
		}
		return best, worst, secondWorst
	}

	centroid, trial, trial2 := w.centroid, w.trial, w.trial2
	var iter int
	for iter = 0; iter < opts.MaxIter; iter++ {
		best, worst, secondWorst := order()

		// Convergence: simplex flat in value and small in extent.
		if simplexFlat(values, best, worst, opts.TolF) && simplexSmall(points, best, worst, opts.TolX) {
			return Result{
				X: w.result(points[best]), F: values[best],
				Iterations: iter, Evals: evals, Converged: true,
			}, nil
		}

		// Centroid of every vertex except the worst.
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i <= dim; i++ {
			if i == worst {
				continue
			}
			for j, v := range points[i] {
				centroid[j] += v
			}
		}
		for j := range centroid {
			centroid[j] /= float64(dim)
		}

		// Reflection.
		for j := range trial {
			trial[j] = centroid[j] + alpha*(centroid[j]-points[worst][j])
		}
		fr := eval(trial)
		switch {
		case fr < values[best]:
			// Expansion.
			for j := range trial2 {
				trial2[j] = centroid[j] + beta*(trial[j]-centroid[j])
			}
			fe := eval(trial2)
			if fe < fr {
				copy(points[worst], trial2)
				values[worst] = fe
			} else {
				copy(points[worst], trial)
				values[worst] = fr
			}
		case fr < values[secondWorst]:
			copy(points[worst], trial)
			values[worst] = fr
		default:
			// Contraction (outside if the reflected point improved on the
			// worst, inside otherwise).
			if fr < values[worst] {
				for j := range trial2 {
					trial2[j] = centroid[j] + gamma*(trial[j]-centroid[j])
				}
			} else {
				for j := range trial2 {
					trial2[j] = centroid[j] - gamma*(centroid[j]-points[worst][j])
				}
			}
			fc := eval(trial2)
			if fc < math.Min(fr, values[worst]) {
				copy(points[worst], trial2)
				values[worst] = fc
			} else {
				// Shrink toward the best vertex.
				for i := 0; i <= dim; i++ {
					if i == best {
						continue
					}
					for j := range points[i] {
						points[i][j] = points[best][j] + delta*(points[i][j]-points[best][j])
					}
					values[i] = eval(points[i])
				}
			}
		}
	}
	best, _, _ := order()
	return Result{
		X: w.result(points[best]), F: values[best],
		Iterations: iter, Evals: evals, Converged: false,
	}, nil
}

// size shapes the simplex buffers for dim coordinates, reusing their
// storage.
func (w *Workspace) size(dim int) {
	if cap(w.centroid) < dim {
		w.vertices = make([]float64, (dim+1)*dim)
		w.points = make([][]float64, dim+1)
		w.values = make([]float64, dim+1)
		w.centroid = make([]float64, dim)
		w.trial = make([]float64, dim)
		w.trial2 = make([]float64, dim)
	}
	w.points = w.points[:dim+1]
	for i := range w.points {
		w.points[i] = w.vertices[i*dim : (i+1)*dim : (i+1)*dim]
	}
	w.values = w.values[:dim+1]
	w.centroid, w.trial, w.trial2 = w.centroid[:dim], w.trial[:dim], w.trial2[:dim]
}

// result copies x into the workspace's Result.X buffer.
func (w *Workspace) result(x []float64) []float64 {
	w.x = append(w.x[:0], x...)
	return w.x
}

func simplexFlat(values []float64, best, worst int, tol float64) bool {
	spread := values[worst] - values[best]
	if math.IsInf(values[worst], 1) {
		return false
	}
	return spread <= tol*(math.Abs(values[best])+tol)
}

func simplexSmall(points [][]float64, best, worst int, tol float64) bool {
	var maxDiff float64
	for j := range points[best] {
		d := math.Abs(points[worst][j] - points[best][j])
		if d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff <= tol
}
