package stat

import "math"

// ConfusionMatrix is a 2×2 contingency table counting agreement between two
// binary raters (here: the exact and approximate change point detectors). It
// mirrors the layout of the paper's Table VI.
type ConfusionMatrix struct {
	// Indexing: first word is the exact (reference) outcome, second the
	// approximate (candidate) outcome.
	PosPos int // both positive (change point detected by both)
	PosNeg int // exact positive, approximate negative — false negative
	NegPos int // exact negative, approximate positive — false positive
	NegNeg int // both negative
}

// Add records one observation.
func (c *ConfusionMatrix) Add(exactPositive, approxPositive bool) {
	switch {
	case exactPositive && approxPositive:
		c.PosPos++
	case exactPositive && !approxPositive:
		c.PosNeg++
	case !exactPositive && approxPositive:
		c.NegPos++
	default:
		c.NegNeg++
	}
}

// Total returns the number of observations.
func (c *ConfusionMatrix) Total() int {
	return c.PosPos + c.PosNeg + c.NegPos + c.NegNeg
}

// FalseNegativeRate returns PosNeg / (PosPos + PosNeg): the fraction of
// reference positives the candidate missed. The paper reports this as the
// "rate of false-negative discoveries". Returns 0 when there are no
// reference positives.
func (c *ConfusionMatrix) FalseNegativeRate() float64 {
	den := c.PosPos + c.PosNeg
	if den == 0 {
		return 0
	}
	return float64(c.PosNeg) / float64(den)
}

// FalsePositiveRate returns NegPos / (NegPos + NegNeg). Returns 0 when there
// are no reference negatives.
func (c *ConfusionMatrix) FalsePositiveRate() float64 {
	den := c.NegPos + c.NegNeg
	if den == 0 {
		return 0
	}
	return float64(c.NegPos) / float64(den)
}

// CohensKappa returns Cohen's κ for the table: the chance-corrected
// agreement the paper uses to compare the exact and approximate detectors
// ("κ = 0.949 … indicating strong agreement"). Returns NaN for an empty
// table. When the expected agreement is exactly 1 (a degenerate marginal),
// κ is defined here as 1 if the observed agreement is also 1 and 0 otherwise.
func (c *ConfusionMatrix) CohensKappa() float64 {
	n := float64(c.Total())
	if n == 0 {
		return math.NaN()
	}
	po := float64(c.PosPos+c.NegNeg) / n
	exactPos := float64(c.PosPos+c.PosNeg) / n
	approxPos := float64(c.PosPos+c.NegPos) / n
	pe := exactPos*approxPos + (1-exactPos)*(1-approxPos)
	if pe == 1 {
		if po == 1 {
			return 1
		}
		return 0
	}
	return (po - pe) / (1 - pe)
}
