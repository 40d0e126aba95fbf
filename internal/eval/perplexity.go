package eval

import (
	"errors"
	"math"
)

// ErrNoObservations is returned when perplexity is requested for an empty
// test set.
var ErrNoObservations = errors.New("eval: no observations")

// PerplexityAccumulator accumulates log probabilities of held-out
// observations and reports the perplexity defined by the paper's Eq. 11:
//
//	PPL = exp(−Σ log P(m) / N).
//
// The zero value is ready to use.
type PerplexityAccumulator struct {
	sumLogProb float64
	n          int
}

// Add records one observation with probability p. Probabilities that are not
// strictly positive make the perplexity infinite; Add clamps them to a tiny
// floor so a single impossible observation dominates but does not produce
// NaN arithmetic downstream.
func (a *PerplexityAccumulator) Add(p float64) {
	const floor = 1e-300
	if !(p > floor) { // also catches NaN
		p = floor
	}
	if p > 1 {
		p = 1
	}
	a.sumLogProb += math.Log(p)
	a.n++
}

// Perplexity returns exp(−mean log probability).
func (a *PerplexityAccumulator) Perplexity() (float64, error) {
	if a.n == 0 {
		return 0, ErrNoObservations
	}
	return math.Exp(-a.sumLogProb / float64(a.n)), nil
}
