package linalg

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestLUSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3.
	a := NewMatrixFrom(2, 2, []float64{2, 1, 1, 3})
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveVec([]float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > tol || math.Abs(x[1]-3) > tol {
		t.Fatalf("solution = %v, want [1 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 4})
	if _, err := NewLU(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := NewLU(NewMatrix(2, 3)); err == nil {
		t.Fatal("NewLU accepted a non-square matrix")
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero in the top-left corner forces a row swap.
	a := NewMatrixFrom(2, 2, []float64{0, 1, 1, 0})
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveVec([]float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > tol || math.Abs(x[1]-3) > tol {
		t.Fatalf("solution = %v, want [7 3]", x)
	}
}

// Property: for random well-conditioned A and x, the LU solve of A·x recovers
// x.
func TestSolveRecoversProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 21))
		a := randomSPD(r, 4)
		x := make([]float64, 4)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		lu, err := NewLU(a)
		if err != nil {
			return false
		}
		got, err := lu.SolveVec(MulVec(nil, a, x))
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyFactorReconstructs(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	a := randomSPD(rng, 4)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := c.L()
	back := NewMatrix(4, 4)
	back.MulTransB(l, l)
	if !back.Equal(a, 1e-8) {
		t.Fatalf("L·Lᵀ != A:\n%v\nvs\n%v", back, a)
	}
}

func TestCholeskySolveMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	a := randomSPD(rng, 5)
	b := make([]float64, 5)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := c.SolveVec(b)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := f.SolveVec(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-8 {
			t.Fatalf("Cholesky %v vs LU %v", x1, x2)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

// The Kalman tests' dense likelihood takes its log-determinant from
// Cholesky, so check it against the closed-form 3×3 determinant.
func TestCholeskyLogDetMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 36))
	for trial := 0; trial < 20; trial++ {
		a := randomSPD(rng, 3)
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		det := a.At(0, 0)*(a.At(1, 1)*a.At(2, 2)-a.At(1, 2)*a.At(2, 1)) -
			a.At(0, 1)*(a.At(1, 0)*a.At(2, 2)-a.At(1, 2)*a.At(2, 0)) +
			a.At(0, 2)*(a.At(1, 0)*a.At(2, 1)-a.At(1, 1)*a.At(2, 0))
		if got, want := c.LogDet(), math.Log(det); math.Abs(got-want) > 1e-10*math.Abs(want)+1e-12 {
			t.Fatalf("Cholesky LogDet %v, log det %v", got, want)
		}
	}
}

func TestVectorOps(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	a := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	y := MulVec(nil, a, []float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v, want [6 15]", y)
	}
}

func TestMulVecReusesBuffer(t *testing.T) {
	a := Identity(3)
	buf := make([]float64, 8)
	out := MulVec(buf, a, []float64{1, 2, 3})
	if &out[0] != &buf[0] {
		t.Fatal("MulVec did not reuse the provided buffer")
	}
	if out[2] != 3 {
		t.Fatalf("MulVec = %v", out)
	}
}

// randomSPD builds a random symmetric positive definite matrix B·Bᵀ + n·I.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := randomMatrix(rng, n, n)
	spd := NewMatrix(n, n)
	spd.MulTransB(b, b)
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n))
	}
	return spd
}
