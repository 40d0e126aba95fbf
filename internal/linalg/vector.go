package linalg

import "fmt"

// Dot returns the dot product of a and b. It panics if lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var sum float64
	for i, v := range a {
		sum += v * b[i]
	}
	return sum
}

// MulVec stores A·x into dst and returns dst. If dst is nil or too short a
// new slice is allocated. dst must not alias x.
func MulVec(dst []float64, a *Matrix, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %dx%d · len %d", a.rows, a.cols, len(x)))
	}
	if len(dst) < a.rows {
		dst = make([]float64, a.rows)
	} else {
		dst = dst[:a.rows]
	}
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var sum float64
		for j, v := range row {
			sum += v * x[j]
		}
		dst[i] = sum
	}
	return dst
}
