package experiments

import (
	"fmt"
	"io"
	"math"

	"mictrend/internal/changepoint"
	"mictrend/internal/report"
	"mictrend/internal/stat"
	"mictrend/internal/trend"
)

// TableVIResult reproduces Table VI: change point consistency between the
// exact and approximate detectors per series kind — the confusion matrix,
// the false negative rate, Cohen's κ, and the RMSE between located change
// points on series where both methods fired.
type TableVIResult struct {
	Confusion [3]stat.ConfusionMatrix
	RMSE      [3]float64
	// TruthHits counts detections (by the exact method) within ±3 months of
	// a generator-injected event affecting the series — an accuracy check
	// the paper could not run.
	TruthHits, TruthTotal [3]int
}

// RunTableVI reproduces the paper's Table VI on the sampled series.
func RunTableVI(env *Env) (*TableVIResult, error) {
	series, err := env.SampleSeries()
	if err != nil {
		return nil, err
	}
	type outcome struct {
		exact, approx changepoint.Result
	}
	outcomes := make([]outcome, len(series))
	scanSeries := func(i int) error {
		ex, err := changepoint.DetectExact(series[i].Values, true)
		if err != nil {
			return err
		}
		ap, err := changepoint.DetectBinary(series[i].Values, true)
		if err != nil {
			return err
		}
		outcomes[i] = outcome{exact: ex, approx: ap}
		return nil
	}
	err = parallelFor(len(series), env.Config.Workers, scanSeries)
	if err != nil {
		return nil, err
	}

	res := &TableVIResult{}
	sqErr := [3]float64{}
	sqN := [3]int{}
	for i, s := range series {
		k := int(s.Kind)
		ex, ap := outcomes[i].exact, outcomes[i].approx
		res.Confusion[k].Add(ex.Detected(), ap.Detected())
		if ex.Detected() && ap.Detected() {
			d := float64(ex.ChangePoint - ap.ChangePoint)
			sqErr[k] += d * d
			sqN[k]++
		}
		// Ground-truth comparison: does the exact detection land near a true
		// injected event for this medicine (release/price cut/expansion)?
		if s.Kind != trend.KindDisease {
			mCode := env.Data.Medicines.Code(int32(s.Medicine))
			changes := env.Truth.ChangesFor(mCode)
			if len(changes) > 0 {
				res.TruthTotal[k]++
				if ex.Detected() {
					for _, c := range changes {
						if absInt(c.Month-ex.ChangePoint) <= 3 {
							res.TruthHits[k]++
							break
						}
					}
				}
			}
		}
	}
	for k := 0; k < 3; k++ {
		if sqN[k] > 0 {
			res.RMSE[k] = math.Sqrt(sqErr[k] / float64(sqN[k]))
		}
	}
	return res, nil
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Render prints the three confusion matrices with κ and RMSE.
func (r *TableVIResult) Render(w io.Writer) {
	for k := 0; k < 3; k++ {
		kind := trend.SeriesKind(k)
		cm := r.Confusion[k]
		t := &report.Table{
			Title:   "Table VI(" + string('a'+rune(k)) + "): exact vs approximate change points — " + kind.String(),
			Headers: []string{"", "approx pos.", "approx neg."},
		}
		t.AddRow("exact pos.", cm.PosPos, cm.PosNeg)
		t.AddRow("exact neg.", cm.NegPos, cm.NegNeg)
		t.Render(w)
		fmt.Fprintf(w, "  false-negative rate = %.3f%%, false-positive rate = %.3f%%, Cohen's kappa = %.3f, cp RMSE = %.3f\n",
			100*cm.FalseNegativeRate(), 100*cm.FalsePositiveRate(), cm.CohensKappa(), r.RMSE[k])
		if r.TruthTotal[k] > 0 {
			fmt.Fprintf(w, "  ground truth: %d/%d series with injected events detected within ±3 months\n",
				r.TruthHits[k], r.TruthTotal[k])
		}
		fmt.Fprintln(w)
	}
}
