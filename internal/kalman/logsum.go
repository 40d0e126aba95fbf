package kalman

import "math"

// LogSum accumulates Σ log x over positive x with one math.Log at the end
// instead of one per term. It multiplies the terms into a product kept as a
// mantissa in [1, 2) and an integer exponent, moving the exponent bits out
// after every multiplication, so the product never overflows or underflows.
// A term outside [2⁻¹⁰⁰⁰, 2¹⁰⁰⁰), where mantissa × term could leave the
// normal range, adds its own log to a direct sum instead. The zero value is
// the empty sum.
//
// A LogSum is a value: Add returns the extended sum, so a kernel keeps it in
// registers, and a stored state continued with the same terms reaches the
// same bits as one run over them all (the prefix scanner's resumes rest on
// that).
type LogSum struct {
	frac   uint64  // fraction bits of the product's mantissa
	exp    int     // the product's binary exponent
	direct float64 // Σ log x over the terms outside the product's range
}

// A term folds into the product when it lies in [2⁻¹⁰⁰⁰, 2¹⁰⁰⁰): the
// mantissa, in [1, 2), times such a term is normal and finite. In bits, that
// is when Float64bits(x) − prodLoBits is below prodSpanBits; zero, negative
// and NaN terms wrap past it.
const (
	prodLoBits   = (1023 - 1000) << 52 // Float64bits(0x1p-1000)
	prodSpanBits = 2000 << 52          // up to Float64bits(0x1p1000)
	fracBits     = 1<<52 - 1
	oneBits      = 1023 << 52 // Float64bits(1)
)

// Add returns s with log x added.
func (s LogSum) Add(x float64) LogSum {
	if math.Float64bits(x)-prodLoBits < prodSpanBits {
		b := math.Float64bits(math.Float64frombits(s.frac|oneBits) * x)
		s.exp += int(b>>52) - 1023
		s.frac = b & fracBits
		return s
	}
	s.direct += math.Log(x)
	return s
}

// Sum returns Σ log x over the terms added: the direct sum plus the log of
// the product, exponent·log 2 + log mantissa.
func (s LogSum) Sum() float64 {
	return s.direct + (float64(s.exp)*math.Ln2 + math.Log(math.Float64frombits(s.frac|oneBits)))
}
