package optimize

import "math"

// brentAbsTol is the absolute floor of Brent's x tolerance, so a minimizer
// at or near zero does not demand fractional accuracy from float64.
const brentAbsTol = 1e-10

// brentMaxIter bounds Brent's iterations. Golden-section steps alone shrink
// a bracket 40 wide to 1e-10 in under 60, so a sound search never hits it.
const brentMaxIter = 100

// cgold is the golden-section fraction (3 − √5)/2.
const cgold = 0.3819660112501051

// Brent minimizes the univariate function f on the bracket [a, b] by
// Brent's method: parabolic interpolation through the three best points,
// falling back to a golden-section step whenever the parabola is untrusted.
// x must lie in [a, b] with fx = f(x) already evaluated (it is not
// re-evaluated); the search keeps the best point seen, so the result is
// never worse than x. The bracket ends themselves are never evaluated.
// Like NelderMead, f may return +Inf or NaN to reject a point (NaN is
// treated as +Inf). The search stops once the bracket around the best point
// is within tol·|x| + 1e-10 of it; Result.X has one element and aliases
// the workspace.
func (ws *Workspace) Brent(f func(float64) float64, a, b, x, fx, tol float64) (Result, error) {
	if !(a <= x && x <= b) || !(tol > 0) {
		return Result{}, ErrInvalidInput
	}
	if math.IsNaN(fx) {
		fx = math.Inf(1)
	}
	evals := 0
	w, v := x, x
	fw, fv := fx, fx
	var d, e float64 // last step and the step before it
	iter := 0
	converged := false
	for ; iter < brentMaxIter; iter++ {
		xm := 0.5 * (a + b)
		tol1 := tol*math.Abs(x) + brentAbsTol
		tol2 := 2 * tol1
		if math.Abs(x-xm) <= tol2-0.5*(b-a) {
			converged = true
			break
		}
		parabolic := false
		if math.Abs(e) > tol1 && !math.IsInf(fw, 1) && !math.IsInf(fv, 1) {
			// Fit a parabola through x, w, v; the step is p/q.
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			etemp := e
			e = d
			// Accept the parabola only if it steps less than half the step
			// before last and lands inside the bracket; NaN fails every test.
			if math.Abs(p) < math.Abs(0.5*q*etemp) && p > q*(a-x) && p < q*(b-x) {
				d = p / q
				u := x + d
				if u-a < tol2 || b-u < tol2 {
					d = math.Copysign(tol1, xm-x)
				}
				parabolic = true
			}
		}
		if !parabolic {
			if x >= xm {
				e = a - x
			} else {
				e = b - x
			}
			d = cgold * e
		}
		u := x + d
		if math.Abs(d) < tol1 {
			u = x + math.Copysign(tol1, d)
		}
		fu := f(u)
		evals++
		if math.IsNaN(fu) {
			fu = math.Inf(1)
		}
		if fu <= fx {
			if u >= x {
				a = x
			} else {
				b = x
			}
			v, w, x = w, x, u
			fv, fw, fx = fw, fx, fu
			continue
		}
		if u < x {
			a = u
		} else {
			b = u
		}
		if fu <= fw || w == x {
			v, w = w, u
			fv, fw = fw, fu
		} else if fu <= fv || v == x || v == w {
			v, fv = u, fu
		}
	}
	ws.x = append(ws.x[:0], x)
	return Result{X: ws.x, F: fx, Iterations: iter, Evals: evals, Converged: converged}, nil
}
