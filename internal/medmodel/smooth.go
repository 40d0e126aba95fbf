package medmodel

import "mictrend/internal/mic"

// The paper's §IX names temporal evolution of the distributions (Dynamic
// Topic Model / Topic Tracking Model style) as the most promising extension
// of the medication model. FitSmoothed implements it as maximum a posteriori
// EM: each month's φ_d carries a Dirichlet prior centered at the previous
// month's fitted distribution with concentration PriorWeight, which
// stabilizes sparse months without constraining months with plenty of data.

// FitSmoothed fits one month with a Dirichlet prior centered at prior's φ.
// priorWeight is the pseudo-count mass added per disease (0 disables the
// prior and reduces to Fit). The prior also extends the support: a pair
// absent from this month's cooccurrences but present in the prior keeps
// probability mass, so rare pairs do not flicker in and out month to month.
//
// The MAP step runs on Fit's kernel: the pseudo-counts w·φ_prev join the
// expected counts of every M-step, and the prior's pairs outside the
// cooccurrences, which the E-step never reads, are only renormalized.
// Results are deterministic: refitting the same month against the same
// prior is bit-identical, the property the crash-recovery tests assert for
// the smoothed chain.
func FitSmoothed(month *mic.Monthly, vocabMedicines int, opts FitOptions, prior *Model, priorWeight float64) (*Model, error) {
	return new(emKernel).fit(month, vocabMedicines, opts, prior, priorWeight)
}
