// Package linalg provides the small dense linear algebra kernel used by the
// Kalman filter and state space models: matrix arithmetic, an LU solve, and
// Cholesky factorization.
//
// Matrices are row-major and sized at construction. The package favors
// explicit destination-style methods (C.Mul(A, B)) so hot loops in the
// Kalman filter can reuse buffers without per-step allocation.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix. It panics if either dimension
// is not positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFrom returns a rows×cols matrix initialized from data laid out in
// row-major order. The slice is copied. It panics if len(data) != rows*cols.
func NewMatrixFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: data length %d does not match %dx%d", len(data), rows, cols))
	}
	m := NewMatrix(rows, cols)
	copy(m.data, data)
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) checkIndex(i, j int) {
	if uint(i) >= uint(m.rows) || uint(j) >= uint(m.cols) {
		m.panicIndex(i, j)
	}
}

// Row returns the i-th row as a slice aliasing the matrix storage. Writes
// through the slice mutate the matrix. Hot loops (the Kalman likelihood
// kernel) use it to avoid per-element bounds arithmetic in At/Set.
func (m *Matrix) Row(i int) []float64 {
	if uint(i) >= uint(m.rows) {
		m.panicRow(i)
	}
	return m.data[i*m.cols:][:m.cols]
}

// panicIndex and panicRow hold the out-of-range panics of checkIndex and
// Row out of line: the fmt.Sprintf call would otherwise push the accessors
// over the compiler's inlining budget. (The accessors' unsigned compares
// reject negative indices too.)
//
//go:noinline
func (m *Matrix) panicIndex(i, j int) {
	panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
}

//go:noinline
func (m *Matrix) panicRow(i int) {
	panic(fmt.Sprintf("linalg: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Resize returns a rows×cols matrix for a caller that keeps one buffer across
// shapes: m itself when it already has that shape (contents kept), else m's
// storage reshaped and zeroed when it is large enough, else a new matrix.
// m may be nil. It panics if either dimension is not positive.
func (m *Matrix) Resize(rows, cols int) *Matrix {
	if m == nil || rows*cols > cap(m.data) {
		return NewMatrix(rows, cols)
	}
	if m.rows == rows && m.cols == cols {
		return m
	}
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix dimensions %dx%d", rows, cols))
	}
	m.rows, m.cols, m.data = rows, cols, m.data[:rows*cols]
	m.Zero()
	return m
}

// CopyFrom copies the contents of src into m. Dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("linalg: copy dimension mismatch %dx%d <- %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Scale multiplies every element of m by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// Add stores a+b into m. All three matrices must have identical dimensions;
// m may alias a or b.
func (m *Matrix) Add(a, b *Matrix) {
	checkSameDims("Add", a, b)
	checkSameDims("Add dst", m, a)
	for i := range m.data {
		m.data[i] = a.data[i] + b.data[i]
	}
}

// Sub stores a−b into m. All three matrices must have identical dimensions;
// m may alias a or b.
func (m *Matrix) Sub(a, b *Matrix) {
	checkSameDims("Sub", a, b)
	checkSameDims("Sub dst", m, a)
	for i := range m.data {
		m.data[i] = a.data[i] - b.data[i]
	}
}

// Mul stores the product a·b into m. m must be a.Rows()×b.Cols() and must not
// alias a or b.
func (m *Matrix) Mul(a, b *Matrix) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if m.rows != a.rows || m.cols != b.cols {
		panic(fmt.Sprintf("linalg: Mul dst is %dx%d, want %dx%d", m.rows, m.cols, a.rows, b.cols))
	}
	if m == a || m == b {
		panic("linalg: Mul destination must not alias an operand")
	}
	for i := 0; i < a.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		for k := range mi {
			mi[k] = 0
		}
		for k := 0; k < a.cols; k++ {
			av := a.data[i*a.cols+k]
			if av == 0 {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range bk {
				mi[j] += av * bv
			}
		}
	}
}

// MulTransB stores a·bᵀ into m. m must be a.Rows()×b.Rows() and must not
// alias a or b.
func (m *Matrix) MulTransB(a, b *Matrix) {
	if a.cols != b.cols {
		panic(fmt.Sprintf("linalg: MulTransB dimension mismatch %dx%d · (%dx%d)ᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	if m.rows != a.rows || m.cols != b.rows {
		panic(fmt.Sprintf("linalg: MulTransB dst is %dx%d, want %dx%d", m.rows, m.cols, a.rows, b.rows))
	}
	if m == a || m == b {
		panic("linalg: MulTransB destination must not alias an operand")
	}
	for i := 0; i < a.rows; i++ {
		ai := a.data[i*a.cols : (i+1)*a.cols]
		for j := 0; j < b.rows; j++ {
			bj := b.data[j*b.cols : (j+1)*b.cols]
			var sum float64
			for k, av := range ai {
				sum += av * bj[k]
			}
			m.data[i*m.cols+j] = sum
		}
	}
}

// MulTransA stores aᵀ·b into m. m must be a.Cols()×b.Cols() and must not
// alias a or b.
func (m *Matrix) MulTransA(a, b *Matrix) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("linalg: MulTransA dimension mismatch (%dx%d)ᵀ · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if m.rows != a.cols || m.cols != b.cols {
		panic(fmt.Sprintf("linalg: MulTransA dst is %dx%d, want %dx%d", m.rows, m.cols, a.cols, b.cols))
	}
	if m == a || m == b {
		panic("linalg: MulTransA destination must not alias an operand")
	}
	for i := range m.data {
		m.data[i] = 0
	}
	for k := 0; k < a.rows; k++ {
		ak := a.data[k*a.cols : (k+1)*a.cols]
		bk := b.data[k*b.cols : (k+1)*b.cols]
		for i, av := range ak {
			if av == 0 {
				continue
			}
			mi := m.data[i*m.cols : (i+1)*m.cols]
			for j, bv := range bk {
				mi[j] += av * bv
			}
		}
	}
}

// Transpose stores aᵀ into m. m must be a.Cols()×a.Rows() and must not alias a.
func (m *Matrix) Transpose(a *Matrix) {
	if m.rows != a.cols || m.cols != a.rows {
		panic(fmt.Sprintf("linalg: Transpose dst is %dx%d, want %dx%d", m.rows, m.cols, a.cols, a.rows))
	}
	if m == a {
		panic("linalg: Transpose destination must not alias the operand")
	}
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			m.data[j*m.cols+i] = a.data[i*a.cols+j]
		}
	}
}

// AddSymmetrize replaces m with the symmetrized sum of m and b: the fused
// equivalent of m.Add(m, b) followed by m.Symmetrize(), producing bitwise
// the same result in one pass. The Kalman likelihood kernel uses it for the
// covariance update P ← sym(T·P·Lᵀ + RQRᵀ). Both matrices must be square
// with identical dimensions.
func (m *Matrix) AddSymmetrize(b *Matrix) {
	if m.rows != m.cols {
		panic("linalg: AddSymmetrize requires a square matrix")
	}
	checkSameDims("AddSymmetrize", m, b)
	n := m.rows
	for i := 0; i < n; i++ {
		ii := i*n + i
		m.data[ii] += b.data[ii]
		for j := i + 1; j < n; j++ {
			ij, ji := i*n+j, j*n+i
			v := ((m.data[ij] + b.data[ij]) + (m.data[ji] + b.data[ji])) / 2
			m.data[ij] = v
			m.data[ji] = v
		}
	}
}

// AddSymmetrizeTrans stores the symmetrized sum of srcᵀ and b into m:
// bitwise the same result as copying srcᵀ into m, then m.Add(m, b), then
// m.Symmetrize() — the off-diagonal grouping is ((srcᵀ_ij + b_ij) +
// (srcᵀ_ji + b_ji))/2 exactly. The Kalman likelihood kernel computes the
// covariance product transposed (scatter form) and uses this to fold the
// transpose back in for free. All three matrices must be square with
// identical dimensions; m must not alias src or b.
func (m *Matrix) AddSymmetrizeTrans(src, b *Matrix) {
	if m.rows != m.cols {
		panic("linalg: AddSymmetrizeTrans requires a square matrix")
	}
	checkSameDims("AddSymmetrizeTrans", m, src)
	checkSameDims("AddSymmetrizeTrans", m, b)
	if m == src || m == b {
		panic("linalg: AddSymmetrizeTrans destination must not alias an operand")
	}
	n := m.rows
	for i := 0; i < n; i++ {
		ii := i*n + i
		m.data[ii] = src.data[ii] + b.data[ii]
		for j := i + 1; j < n; j++ {
			ij, ji := i*n+j, j*n+i
			v := ((src.data[ji] + b.data[ij]) + (src.data[ij] + b.data[ji])) / 2
			m.data[ij] = v
			m.data[ji] = v
		}
	}
}

// Symmetrize replaces m with (m+mᵀ)/2. It panics if m is not square. The
// Kalman filter uses it to cancel the drift that makes covariance updates
// slightly asymmetric in floating point.
func (m *Matrix) Symmetrize() {
	if m.rows != m.cols {
		panic("linalg: Symmetrize requires a square matrix")
	}
	n := m.rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (m.data[i*n+j] + m.data[j*n+i]) / 2
			m.data[i*n+j] = v
			m.data[j*n+i] = v
		}
	}
}

// Trace returns the sum of diagonal elements. It panics if m is not square.
func (m *Matrix) Trace() float64 {
	if m.rows != m.cols {
		panic("linalg: Trace requires a square matrix")
	}
	var tr float64
	for i := 0; i < m.rows; i++ {
		tr += m.data[i*m.cols+i]
	}
	return tr
}

// MaxAbs returns the largest absolute element value of m.
func (m *Matrix) MaxAbs() float64 {
	var max float64
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Equal reports whether m and b have the same shape and every pair of
// elements differs by at most tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		sb.WriteByte('[')
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.6g", m.data[i*m.cols+j])
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

func checkSameDims(op string, a, b *Matrix) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("linalg: %s dimension mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}
