package optimize

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+1)*(x[1]+1)
	}
	res, err := NelderMead(f, []float64{0, 0}, NelderMeadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if math.Abs(res.X[0]-3) > 1e-5 || math.Abs(res.X[1]+1) > 1e-5 {
		t.Fatalf("minimum at %v, want [3 -1]", res.X)
	}
	if res.F > 1e-9 {
		t.Fatalf("F = %v", res.F)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res, err := NelderMead(f, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]-1) > 1e-4 {
		t.Fatalf("minimum at %v (f=%v), want [1 1]", res.X, res.F)
	}
}

func TestNelderMead1D(t *testing.T) {
	f := func(x []float64) float64 { return math.Cosh(x[0] - 2) }
	res, err := NelderMead(f, []float64{-5}, NelderMeadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-5 {
		t.Fatalf("minimum at %v, want 2", res.X[0])
	}
}

func TestNelderMeadRespectsInfConstraint(t *testing.T) {
	// Constrain x >= 0 by returning +Inf; minimum of (x-(-3))² on x>=0 is 0.
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.Inf(1)
		}
		return (x[0] + 3) * (x[0] + 3)
	}
	res, err := NelderMead(f, []float64{5}, NelderMeadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] < 0 {
		t.Fatalf("violated constraint: %v", res.X)
	}
	if math.Abs(res.X[0]) > 1e-4 {
		t.Fatalf("minimum at %v, want 0", res.X[0])
	}
}

func TestNelderMeadTreatsNaNAsInf(t *testing.T) {
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return x[0] * x[0]
	}
	res, err := NelderMead(f, []float64{4}, NelderMeadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.F) {
		t.Fatal("NaN leaked into the result")
	}
}

func TestNelderMeadEmptyInput(t *testing.T) {
	if _, err := NelderMead(func(x []float64) float64 { return 0 }, nil, NelderMeadOptions{}); err == nil {
		t.Fatal("empty start accepted")
	}
}

func TestNelderMeadMaxIterStops(t *testing.T) {
	calls := 0
	f := func(x []float64) float64 { calls++; return x[0] } // unbounded below
	res, err := NelderMead(f, []float64{0}, NelderMeadOptions{MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("unbounded objective reported convergence")
	}
	if res.Iterations != 10 {
		t.Fatalf("iterations = %d, want 10", res.Iterations)
	}
	if res.Evals != calls {
		t.Fatalf("Evals = %d, actual calls = %d", res.Evals, calls)
	}
}

// Property: for random convex quadratics the minimizer lands near the known
// optimum.
func TestNelderMeadQuadraticProperty(t *testing.T) {
	f := func(cx, cy int8) bool {
		tx, ty := float64(cx)/10, float64(cy)/10
		obj := func(x []float64) float64 {
			return 2*(x[0]-tx)*(x[0]-tx) + 0.5*(x[1]-ty)*(x[1]-ty)
		}
		res, err := NelderMead(obj, []float64{1, -1}, NelderMeadOptions{})
		if err != nil {
			return false
		}
		return math.Abs(res.X[0]-tx) < 1e-4 && math.Abs(res.X[1]-ty) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBrentQuadratic(t *testing.T) {
	calls := 0
	f := func(x float64) float64 { calls++; return (x-1.5)*(x-1.5) + 2 }
	res, err := new(Workspace).Brent(f, -10, 10, 4, f(4), 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if math.Abs(res.X[0]-1.5) > 1e-7 {
		t.Fatalf("minimum at %v, want 1.5", res.X[0])
	}
	if res.F-2 > 1e-14 {
		t.Fatalf("F = %v, want 2", res.F)
	}
	// A parabola is fitted exactly, so the search takes a handful of steps,
	// and the start's evaluation is not repeated.
	if res.Evals != calls-1 || res.Evals > 10 {
		t.Fatalf("Evals = %d (calls %d), want ≤ 10 and the start not re-evaluated", res.Evals, calls)
	}
}

func TestBrentMinimumAtBracketEnd(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(x) } // decreasing toward a
	res, err := new(Workspace).Brent(f, -2, 3, 1, f(1), 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]+2) > 1e-6 {
		t.Fatalf("minimum at %v, want the bracket end -2", res.X[0])
	}
	if res.X[0] < -2 {
		t.Fatalf("left the bracket: %v", res.X[0])
	}
}

func TestBrentFlatObjective(t *testing.T) {
	f := func(float64) float64 { return 7 }
	res, err := new(Workspace).Brent(f, -1, 1, 0.25, 7, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.F != 7 {
		t.Fatalf("flat objective: %+v", res)
	}
	if res.X[0] < -1 || res.X[0] > 1 {
		t.Fatalf("left the bracket: %v", res.X[0])
	}
}

func TestBrentInfAndNaNRegions(t *testing.T) {
	// +Inf right of 1, NaN left of -1, a minimum at 0.8 between them.
	f := func(x float64) float64 {
		switch {
		case x > 1:
			return math.Inf(1)
		case x < -1:
			return math.NaN()
		}
		return (x - 0.8) * (x - 0.8)
	}
	res, err := new(Workspace).Brent(f, -3, 3, 0, f(0), 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.F) || math.IsInf(res.F, 0) {
		t.Fatalf("non-finite result %v", res.F)
	}
	if math.Abs(res.X[0]-0.8) > 1e-6 {
		t.Fatalf("minimum at %v, want 0.8", res.X[0])
	}
	// A NaN start value counts as +Inf and is replaced by the first finite
	// point found.
	res, err = new(Workspace).Brent(f, -3, 3, -2, math.NaN(), 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.F) {
		t.Fatal("NaN leaked into the result")
	}
}

func TestBrentInvalid(t *testing.T) {
	f := func(x float64) float64 { return x * x }
	if _, err := new(Workspace).Brent(f, 1, 0, 0.5, 0.25, 1e-8); err == nil {
		t.Fatal("inverted bracket accepted")
	}
	if _, err := new(Workspace).Brent(f, 0, 1, 2, 4, 1e-8); err == nil {
		t.Fatal("start outside the bracket accepted")
	}
	if _, err := new(Workspace).Brent(f, 0, 1, 0.5, 0.25, 0); err == nil {
		t.Fatal("zero tolerance accepted")
	}
}

// TestWorkspaceReuseMatchesFresh: minimizations on one workspace that
// alternates between one and two dimensions, and between Nelder-Mead and
// Brent, return what each returns on a fresh workspace, bit for bit.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	rosen := func(x []float64) float64 { return 100*math.Pow(x[1]-x[0]*x[0], 2) + math.Pow(1-x[0], 2) }
	bowl := func(x []float64) float64 { return math.Cosh(x[0]-0.3) + 0.1*x[0]*x[0] }
	line := func(x float64) float64 { return bowl([]float64{x}) }
	type run func(w *Workspace) (Result, error)
	runs := []run{
		func(w *Workspace) (Result, error) {
			return w.NelderMead(rosen, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 3000})
		},
		func(w *Workspace) (Result, error) { return w.NelderMead(bowl, []float64{4}, NelderMeadOptions{}) },
		func(w *Workspace) (Result, error) { return w.Brent(line, -2, 3, 1, line(1), 1e-8) },
		func(w *Workspace) (Result, error) {
			return w.NelderMead(rosen, []float64{0.5, 0.5}, NelderMeadOptions{Step: 0.1, StepAbsolute: true, MaxIter: 40})
		},
	}
	shared := new(Workspace)
	for round := 0; round < 3; round++ {
		for i, r := range runs {
			got, err := r(shared)
			if err != nil {
				t.Fatal(err)
			}
			x := append([]float64(nil), got.X...)
			want, err := r(new(Workspace))
			if err != nil {
				t.Fatal(err)
			}
			same := len(x) == len(want.X) && math.Float64bits(got.F) == math.Float64bits(want.F) &&
				got.Iterations == want.Iterations && got.Evals == want.Evals && got.Converged == want.Converged
			for j := range x {
				same = same && math.Float64bits(x[j]) == math.Float64bits(want.X[j])
			}
			if !same {
				t.Fatalf("round %d run %d: reused workspace gave %+v (X %v), fresh %+v", round, i, got, x, want)
			}
		}
	}
}
