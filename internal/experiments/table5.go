package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"mictrend/internal/changepoint"
	"mictrend/internal/report"
	"mictrend/internal/ssm"
)

// TableVResult reproduces Table V: total fitting time per series kind for
// the exact (Algorithm 1) and approximate (Algorithm 2) change point
// searches, each reported with its cost rate relative to a single fit of the
// model without intervention variables — the paper's parenthesized
// "increased computation rate". The theoretical expectations are T+1 for
// the exact search and ≈log2(T)+O(1) for the binary search.
type TableVResult struct {
	Months int
	// Baseline[kind] is the time for one no-intervention fit of every
	// series of the kind.
	Baseline [3]time.Duration
	Exact    [3]time.Duration
	Approx   [3]time.Duration
	// Fit-count rates: mean model fits per series performed by each search.
	ExactFits  [3]float64
	ApproxFits [3]float64
	Counts     [3]int
}

// RunTableV reproduces the paper's Table V on the sampled series.
func RunTableV(env *Env) (*TableVResult, error) {
	series, err := env.SampleSeries()
	if err != nil {
		return nil, err
	}
	res := &TableVResult{Months: env.Config.Months}
	for _, s := range series {
		res.Counts[int(s.Kind)]++
	}

	// Phase runners time one strategy over all series, accumulating per
	// kind. Workers parallelize within a phase; wall-clock is summed per
	// series so parallelism does not distort the rate (we sum CPU-ish time).
	run := func(fn func(y []float64) (int, error)) ([3]time.Duration, [3]float64, error) {
		var durations [3]time.Duration
		var fits [3]float64
		var mu sync.Mutex
		timeSeries := func(i int) error {
			start := time.Now()
			nFits, err := fn(series[i].Values)
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			mu.Lock()
			durations[int(series[i].Kind)] += elapsed
			fits[int(series[i].Kind)] += float64(nFits)
			mu.Unlock()
			return nil
		}
		err := parallelFor(len(series), env.Config.Workers, timeSeries)
		return durations, fits, err
	}

	baseline, _, err := run(func(y []float64) (int, error) {
		_, err := ssm.FitConfig(y, ssm.Config{Seasonal: true, ChangePoint: ssm.NoChangePoint})
		return 1, err
	})
	if err != nil {
		return nil, err
	}
	res.Baseline = baseline

	exact, exactFits, err := run(func(y []float64) (int, error) {
		r, err := changepoint.DetectExact(y, true)
		return r.Fits, err
	})
	if err != nil {
		return nil, err
	}
	res.Exact = exact

	approx, approxFits, err := run(func(y []float64) (int, error) {
		r, err := changepoint.DetectBinary(y, true)
		return r.Fits, err
	})
	if err != nil {
		return nil, err
	}
	res.Approx = approx

	for k := 0; k < 3; k++ {
		if res.Counts[k] > 0 {
			res.ExactFits[k] = exactFits[k] / float64(res.Counts[k])
			res.ApproxFits[k] = approxFits[k] / float64(res.Counts[k])
		}
	}
	return res, nil
}

// Rate returns elapsed/baseline for a kind, the paper's parenthesized
// metric.
func (r *TableVResult) Rate(d [3]time.Duration, kind int) float64 {
	if r.Baseline[kind] <= 0 {
		return 0
	}
	return float64(d[kind]) / float64(r.Baseline[kind])
}

// Render prints the timing table.
func (r *TableVResult) Render(w io.Writer) {
	t := &report.Table{
		Title:   "Table V: computational time to fit all series (rate vs no-intervention fit)",
		Headers: []string{"method", "disease", "medicine", "prescription"},
	}
	row := func(name string, d [3]time.Duration, fits [3]float64) {
		cells := make([]interface{}, 0, 4)
		cells = append(cells, name)
		for k := 0; k < 3; k++ {
			cells = append(cells, fmt.Sprintf("%.3fs (%.2fx, %.1f fits)", d[k].Seconds(), r.Rate(d, k), fits[k]))
		}
		t.AddRow(cells...)
	}
	row("Exact Solution", r.Exact, r.ExactFits)
	row("Approximate Solution", r.Approx, r.ApproxFits)
	t.Render(w)
	fmt.Fprintf(w, "theoretical rates for T=%d: exact ≈ %d, approximate ≈ %.2f\n",
		r.Months, r.Months-1, logTheoretical(r.Months))
}

func logTheoretical(t int) float64 {
	// log2(T) plus the terminal pair and the no-change comparison.
	n := 0.0
	for v := t; v > 1; v /= 2 {
		n++
	}
	return n + 2
}
