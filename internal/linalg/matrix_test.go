package linalg

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

const tol = 1e-10

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {2, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMatrix(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewMatrix(dims[0], dims[1])
		}()
	}
}

func TestNewMatrixFromCopiesData(t *testing.T) {
	data := []float64{1, 2, 3, 4}
	m := NewMatrixFrom(2, 2, data)
	data[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatalf("NewMatrixFrom aliased the input slice")
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 42.5)
	if got := m.At(1, 2); got != 42.5 {
		t.Fatalf("At(1,2) = %v, want 42.5", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	m.At(2, 0)
}

// TestAccessorPanicMessages pins the out-of-range panic values of the
// inlined accessors, negative indices included.
func TestAccessorPanicMessages(t *testing.T) {
	m := NewMatrix(2, 3)
	cases := []struct {
		name string
		call func()
		want string
	}{
		{"At", func() { m.At(0, 3) }, "linalg: index (0,3) out of range for 2x3 matrix"},
		{"Set", func() { m.Set(-1, 0, 1) }, "linalg: index (-1,0) out of range for 2x3 matrix"},
		{"Row", func() { m.Row(2) }, "linalg: row 2 out of range for 2x3 matrix"},
		{"RowNegative", func() { m.Row(-1) }, "linalg: row -1 out of range for 2x3 matrix"},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("%s: panic %v, want %q", tc.name, got, tc.want)
				}
			}()
			tc.call()
		}()
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(3)[%d,%d] = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestMulKnownProduct(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewMatrixFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := NewMatrix(2, 2)
	c.Mul(a, b)
	want := NewMatrixFrom(2, 2, []float64{58, 64, 139, 154})
	if !c.Equal(want, 0) {
		t.Fatalf("Mul result:\n%v\nwant:\n%v", c, want)
	}
}

func TestMulIdentityIsNoop(t *testing.T) {
	a := randomMatrix(rand.New(rand.NewPCG(1, 2)), 4, 4)
	c := NewMatrix(4, 4)
	c.Mul(a, Identity(4))
	if !c.Equal(a, tol) {
		t.Fatal("A·I != A")
	}
	c.Mul(Identity(4), a)
	if !c.Equal(a, tol) {
		t.Fatal("I·A != A")
	}
}

func TestMulPanicsOnAlias(t *testing.T) {
	a := Identity(2)
	defer func() {
		if recover() == nil {
			t.Fatal("aliased Mul did not panic")
		}
	}()
	a.Mul(a, a)
}

func TestAddSub(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatrixFrom(2, 2, []float64{5, 6, 7, 8})
	sum := NewMatrix(2, 2)
	sum.Add(a, b)
	if !sum.Equal(NewMatrixFrom(2, 2, []float64{6, 8, 10, 12}), 0) {
		t.Fatalf("Add result:\n%v", sum)
	}
	diff := NewMatrix(2, 2)
	diff.Sub(b, a)
	if !diff.Equal(NewMatrixFrom(2, 2, []float64{4, 4, 4, 4}), 0) {
		t.Fatalf("Sub result:\n%v", diff)
	}
}

func TestAddAliasesAllowed(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	a.Add(a, a)
	if !a.Equal(NewMatrixFrom(2, 2, []float64{2, 4, 6, 8}), 0) {
		t.Fatalf("in-place Add result:\n%v", a)
	}
}

func TestTranspose(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := NewMatrix(3, 2)
	at.Transpose(a)
	want := NewMatrixFrom(3, 2, []float64{1, 4, 2, 5, 3, 6})
	if !at.Equal(want, 0) {
		t.Fatalf("Transpose result:\n%v", at)
	}
}

func TestMulTransBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	a := randomMatrix(rng, 3, 5)
	b := randomMatrix(rng, 4, 5)
	got := NewMatrix(3, 4)
	got.MulTransB(a, b)
	bt := NewMatrix(5, 4)
	bt.Transpose(b)
	want := NewMatrix(3, 4)
	want.Mul(a, bt)
	if !got.Equal(want, tol) {
		t.Fatalf("MulTransB:\n%v\nwant:\n%v", got, want)
	}
}

func TestMulTransAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	a := randomMatrix(rng, 5, 3)
	b := randomMatrix(rng, 5, 4)
	got := NewMatrix(3, 4)
	got.MulTransA(a, b)
	at := NewMatrix(3, 5)
	at.Transpose(a)
	want := NewMatrix(3, 4)
	want.Mul(at, b)
	if !got.Equal(want, tol) {
		t.Fatalf("MulTransA:\n%v\nwant:\n%v", got, want)
	}
}

func TestSymmetrize(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 4, 3})
	a.Symmetrize()
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Fatalf("Symmetrize result:\n%v", a)
	}
}

func TestTrace(t *testing.T) {
	a := NewMatrixFrom(3, 3, []float64{1, 9, 9, 9, 2, 9, 9, 9, 3})
	if got := a.Trace(); got != 6 {
		t.Fatalf("Trace = %v, want 6", got)
	}
}

func TestMaxAbs(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{-7, 2, 3, 4})
	if got := a.MaxAbs(); got != 7 {
		t.Fatalf("MaxAbs = %v, want 7", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewMatrixFrom(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with the original")
	}
}

func TestScale(t *testing.T) {
	a := NewMatrixFrom(1, 3, []float64{1, -2, 3})
	a.Scale(2)
	if !a.Equal(NewMatrixFrom(1, 3, []float64{2, -4, 6}), 0) {
		t.Fatalf("Scale result:\n%v", a)
	}
}

// Property: matrix multiplication is associative, (AB)C == A(BC).
func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 0))
		a := randomMatrix(r, 3, 4)
		b := randomMatrix(r, 4, 2)
		c := randomMatrix(r, 2, 5)
		ab := NewMatrix(3, 2)
		ab.Mul(a, b)
		abc1 := NewMatrix(3, 5)
		abc1.Mul(ab, c)
		bc := NewMatrix(4, 5)
		bc.Mul(b, c)
		abc2 := NewMatrix(3, 5)
		abc2.Mul(a, bc)
		return abc1.Equal(abc2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A+B)ᵀ == Aᵀ+Bᵀ.
func TestTransposeLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 1))
		a := randomMatrix(r, 3, 4)
		b := randomMatrix(r, 3, 4)
		sum := NewMatrix(3, 4)
		sum.Add(a, b)
		sumT := NewMatrix(4, 3)
		sumT.Transpose(sum)
		at := NewMatrix(4, 3)
		at.Transpose(a)
		bt := NewMatrix(4, 3)
		bt.Transpose(b)
		want := NewMatrix(4, 3)
		want.Add(at, bt)
		return sumT.Equal(want, tol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

var _ = math.Pi

// TestResize: Resize keeps a matrix of the asked shape as it is, reshapes a
// larger one in place with zeroed contents, and allocates when the storage
// is too small or the matrix is nil.
func TestResize(t *testing.T) {
	var nilM *Matrix
	m := nilM.Resize(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("nil Resize gave %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 5)
	if same := m.Resize(2, 3); same != m || same.At(1, 2) != 5 {
		t.Fatal("same-shape Resize must return m unchanged")
	}
	small := m.Resize(2, 2)
	if small != m || small.Rows() != 2 || small.Cols() != 2 {
		t.Fatal("a smaller shape must reuse m")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if small.At(i, j) != 0 {
				t.Fatalf("reshaped matrix not zeroed at (%d,%d)", i, j)
			}
		}
	}
	if back := small.Resize(3, 2); back != m {
		t.Fatal("growing back within the storage must reuse m")
	}
	if big := m.Resize(4, 4); big == m || big.Rows() != 4 {
		t.Fatal("a shape beyond the storage must allocate")
	}
}
