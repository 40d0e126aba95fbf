package linalg

import (
	"strings"
	"testing"
)

func TestStringRendersRows(t *testing.T) {
	m := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	s := m.String()
	if !strings.Contains(s, "[1 2]") || !strings.Contains(s, "[3 4]") {
		t.Fatalf("String() = %q", s)
	}
}

func TestCopyFromMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMatrix(2, 2).CopyFrom(NewMatrix(3, 3))
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	cases := []func(){
		func() { NewMatrix(2, 2).Mul(NewMatrix(2, 3), NewMatrix(2, 2)) },       // inner mismatch
		func() { NewMatrix(3, 3).Mul(NewMatrix(2, 2), NewMatrix(2, 2)) },       // dst mismatch
		func() { NewMatrix(2, 2).MulTransB(NewMatrix(2, 3), NewMatrix(2, 2)) }, // inner mismatch
		func() { NewMatrix(2, 2).MulTransA(NewMatrix(3, 2), NewMatrix(2, 2)) }, // inner mismatch
		func() { NewMatrix(2, 2).Transpose(NewMatrix(2, 3)) },                  // dst mismatch
		func() { NewMatrix(2, 3).Add(NewMatrix(2, 2), NewMatrix(2, 2)) },       // dst mismatch
		func() { NewMatrix(2, 2).Sub(NewMatrix(2, 3), NewMatrix(2, 2)) },       // operand mismatch
		func() { m := NewMatrix(2, 2); m.MulTransB(m, NewMatrix(2, 2)) },       // alias
		func() { m := NewMatrix(2, 2); m.MulTransA(NewMatrix(2, 2), m) },       // alias
		func() { m := NewMatrix(2, 2); m.Transpose(m) },                        // alias
		func() { NewMatrix(2, 3).Trace() },                                     // non-square
		func() { NewMatrix(2, 3).Symmetrize() },                                // non-square
		func() { NewMatrixFrom(1, 2, []float64{1}) },                           // bad data length
		func() { NewMatrix(2, 2).Set(0, 5, 1) },                                // index range
		func() { Dot([]float64{1}, []float64{1, 2}) },                          // length mismatch
		func() { MulVec(nil, NewMatrix(2, 3), []float64{1}) },                  // length mismatch
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSolveErrorPaths(t *testing.T) {
	id := Identity(2)
	lu, err := NewLU(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lu.SolveVec([]float64{1}); err == nil {
		t.Fatal("wrong rhs length accepted")
	}
}

func TestCholeskyErrorPaths(t *testing.T) {
	if _, err := NewCholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
	c, err := NewCholesky(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SolveVec([]float64{1}); err == nil {
		t.Fatal("wrong rhs length accepted")
	}
}
