package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a matrix
// that is singular (or numerically indistinguishable from singular).
var ErrSingular = errors.New("linalg: matrix is singular")

// LU holds the LU factorization of a square matrix with partial pivoting:
// P·A = L·U, where L is unit lower triangular and U is upper triangular,
// packed into a single matrix.
type LU struct {
	lu    *Matrix
	pivot []int
}

// NewLU factors the square matrix a. The input is not modified.
func NewLU(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("linalg: LU requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	lu := a.Clone()
	pivot := make([]int, n)
	for k := 0; k < n; k++ {
		// Partial pivoting: pick the row with the largest |value| in column k.
		p := k
		maxAbs := math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.data[i*n+k]); a > maxAbs {
				maxAbs = a
				p = i
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		pivot[k] = p
		if p != k {
			rowK := lu.data[k*n : (k+1)*n]
			rowP := lu.data[p*n : (p+1)*n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
		}
		pivotVal := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			factor := lu.data[i*n+k] / pivotVal
			lu.data[i*n+k] = factor
			if factor == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.data[i*n+j] -= factor * lu.data[k*n+j]
			}
		}
	}
	return &LU{lu: lu, pivot: pivot}, nil
}

// SolveVec solves A·x = b for a single right-hand side, returning x.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: SolveVec rhs length %d, want %d", len(b), n)
	}
	x := make([]float64, n)
	copy(x, b)
	// Apply the row permutation.
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution with unit lower triangular L.
	for i := 1; i < n; i++ {
		var sum float64
		for j := 0; j < i; j++ {
			sum += f.lu.data[i*n+j] * x[j]
		}
		x[i] -= sum
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		var sum float64
		for j := i + 1; j < n; j++ {
			sum += f.lu.data[i*n+j] * x[j]
		}
		d := f.lu.data[i*n+i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = (x[i] - sum) / d
	}
	return x, nil
}
