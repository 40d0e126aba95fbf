package experiments

import (
	"testing"

	"mictrend/internal/changepoint"
)

// TestPrefixScanSelectionMatchesColdOnCorpus is the corpus tripwire for the
// prefix-checkpointed scan: the scan's screening and refinement must
// reproduce the cold serial scan's selection byte for byte — change point,
// winning AIC, and no-change AIC — on every sampled corpus series, in the
// env's seasonal mode and with the non-seasonal model. A divergence means a
// true winner slipped past the ladder screen (prefixScreenMargin too tight)
// or skipped its cold refit (refineMargin too tight), and the fit savings
// are no longer free.
func TestPrefixScanSelectionMatchesColdOnCorpus(t *testing.T) {
	env := testEnv(t)
	sample, err := env.SampleSeries()
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) == 0 {
		t.Fatal("corpus sample is empty")
	}
	modes := []bool{false}
	if env.Config.Months >= 24 {
		modes = append(modes, true)
	}
	for _, seasonal := range modes {
		coldTotal, prefixTotal := 0, 0
		for _, s := range sample {
			cold, err := changepoint.DetectExact(s.Values, seasonal)
			if err != nil {
				t.Fatalf("seasonal=%v %v d%d/m%d: cold scan: %v", seasonal, s.Kind, s.Disease, s.Medicine, err)
			}
			pref, err := changepoint.DetectExactPrefix(s.Values, seasonal, changepoint.PrefixOptions{
				Workers: 4,
			})
			if err != nil {
				t.Fatalf("seasonal=%v %v d%d/m%d: prefix scan: %v", seasonal, s.Kind, s.Disease, s.Medicine, err)
			}
			if pref.ChangePoint != cold.ChangePoint || pref.AIC != cold.AIC || pref.NoChangeAIC != cold.NoChangeAIC {
				t.Errorf("seasonal=%v %v d%d/m%d: prefix scan selected (cp=%d aic=%v nc=%v), cold selected (cp=%d aic=%v nc=%v)",
					seasonal, s.Kind, s.Disease, s.Medicine,
					pref.ChangePoint, pref.AIC, pref.NoChangeAIC,
					cold.ChangePoint, cold.AIC, cold.NoChangeAIC)
			}
			coldTotal += cold.Fits
			prefixTotal += pref.Fits
			// On a flat series the equivalence contract forces a fit for every
			// candidate the refinement band can reach, so per-series overhead
			// (probes + refits) is legitimate — but it must stay bounded.
			if pref.Fits > cold.Fits+16 {
				t.Errorf("seasonal=%v %v d%d/m%d: prefix scan spent %d fits, cold spent %d — screening overhead out of bounds",
					seasonal, s.Kind, s.Disease, s.Medicine, pref.Fits, cold.Fits)
			}
		}
		// Across the corpus the screen must save fits in aggregate: break
		// series collapse to a handful of contenders, outweighing flat-series
		// overhead.
		if prefixTotal >= coldTotal {
			t.Errorf("seasonal=%v: prefix scan spent %d total fits, cold spent %d — no aggregate saving", seasonal, prefixTotal, coldTotal)
		}
	}
}
