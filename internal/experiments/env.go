// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII–§VIII) on a synthetic MIC corpus with ground truth. Each
// experiment is a Run function returning a structured result plus a Render
// method that prints the same rows/series the paper reports. Absolute
// numbers differ from the paper (different data); the orderings, factors,
// and crossovers are what these reproductions preserve.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"mictrend/internal/medmodel"
	"mictrend/internal/mic"
	"mictrend/internal/micgen"
)

// Config scales an experiment run. SmallConfig is sized for unit tests and
// benchmarks; DefaultConfig approximates the paper's 43-month setup at
// laptop scale.
type Config struct {
	Seed            uint64
	Months          int
	RecordsPerMonth int
	BulkDiseases    int
	BulkMedicines   int
	// TopKDiseases is the number of frequent diseases for the relevance
	// experiment (the paper uses 100).
	TopKDiseases int
	// HoldoutTrainFraction is the per-record medicine train share (paper:
	// 0.9).
	HoldoutTrainFraction float64
	// MinSeriesTotal filters reproduced series (paper: 10).
	MinSeriesTotal float64
	// MinMonthlyFreq filters rare codes per month (paper: 5).
	MinMonthlyFreq int
	// ForecastHorizon is the test window of the forecasting experiment
	// (paper: 12 of 43 months).
	ForecastHorizon int
	// MaxSeriesPerKind caps how many series per kind enter the heavy
	// Table IV–VI sweeps (0 = no cap).
	MaxSeriesPerKind int
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// EM tunes medication model fitting.
	EM medmodel.FitOptions
}

// SmallConfig returns a fast configuration for tests and benchmarks. The
// window must cover the latest scenario event (the Lewy body indication
// expansion at month 24), so 36 months is the practical minimum.
func SmallConfig() Config {
	return Config{
		Seed:                 7,
		Months:               36,
		RecordsPerMonth:      700,
		BulkDiseases:         8,
		BulkMedicines:        10,
		TopKDiseases:         15,
		HoldoutTrainFraction: 0.9,
		MinSeriesTotal:       10,
		MinMonthlyFreq:       5,
		ForecastHorizon:      8,
		MaxSeriesPerKind:     12,
		EM:                   medmodel.FitOptions{MaxIter: 20},
	}
}

// DefaultConfig mirrors the paper's period length at a corpus scale that
// runs in minutes on a laptop.
func DefaultConfig() Config {
	return Config{
		Seed:                 7,
		Months:               43,
		RecordsPerMonth:      2000,
		BulkDiseases:         60,
		BulkMedicines:        80,
		TopKDiseases:         100,
		HoldoutTrainFraction: 0.9,
		MinSeriesTotal:       10,
		MinMonthlyFreq:       5,
		ForecastHorizon:      12,
		MaxSeriesPerKind:     120,
		EM:                   medmodel.FitOptions{MaxIter: 30},
	}
}

// Env is the shared experimental setup: the generated corpus with ground
// truth, the frequency-filtered view, per-month fitted models (proposed and
// cooccurrence), and the reproduced series of both.
type Env struct {
	Config   Config
	Data     *mic.Dataset
	Truth    *micgen.Truth
	Filtered *mic.Dataset

	modelsOnce sync.Once
	modelsErr  error
	models     []*medmodel.Model
	sums       []medmodel.MonthSums // each fitted month's Eq. 7 sums
	coocs      []*medmodel.Cooccurrence

	seriesOnce sync.Once
	seriesErr  error
	series     *medmodel.SeriesSet // proposed, min-total filtered
	coocSeries *medmodel.SeriesSet // cooccurrence, unfiltered
}

// NewEnv generates the corpus for cfg.
func NewEnv(cfg Config) (*Env, error) {
	ds, truth, err := micgen.Generate(micgen.Config{
		Seed:            cfg.Seed,
		Months:          cfg.Months,
		RecordsPerMonth: cfg.RecordsPerMonth,
		BulkDiseases:    cfg.BulkDiseases,
		BulkMedicines:   cfg.BulkMedicines,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: generating corpus: %w", err)
	}
	filtered := mic.FilterDataset(ds, mic.FilterOptions{MinMonthlyFreq: cfg.MinMonthlyFreq})
	return &Env{Config: cfg, Data: ds, Truth: truth, Filtered: filtered}, nil
}

// Models returns the per-month proposed and cooccurrence models, fitting
// them on first use.
func (e *Env) Models() ([]*medmodel.Model, []*medmodel.Cooccurrence, error) {
	e.modelsOnce.Do(func() {
		models, sums, fails, err := medmodel.FitMonths(context.Background(), e.Filtered, e.Config.EM)
		if err != nil {
			e.modelsErr = err
			return
		}
		if len(fails) > 0 {
			e.modelsErr = fails[0].Err
			return
		}
		e.models, e.sums = models, sums
		coocs := make([]*medmodel.Cooccurrence, e.Filtered.T())
		for i, month := range e.Filtered.Months {
			c, err := medmodel.FitCooccurrence(month, e.Filtered.Medicines.Len())
			if err != nil {
				e.modelsErr = err
				return
			}
			coocs[i] = c
		}
		e.coocs = coocs
	})
	return e.models, e.coocs, e.modelsErr
}

// Series returns the reproduced series: proposed (min-total filtered, as the
// paper filters before trend detection) and cooccurrence (unfiltered, used
// only for comparisons like Fig. 2).
func (e *Env) Series() (proposed, cooc *medmodel.SeriesSet, err error) {
	models, coocs, err := e.Models()
	if err != nil {
		return nil, nil, err
	}
	e.seriesOnce.Do(func() {
		// Places the Eq. 7 sums each fit computed: a cold Reproduce's bits.
		s, err := medmodel.ReproduceMonths(e.Filtered, models, e.sums, 1)
		if err != nil {
			e.seriesErr = err
			return
		}
		e.series = s.FilterMinTotal(e.Config.MinSeriesTotal)
		cs, err := medmodel.ReproduceCooccurrence(e.Filtered, coocs)
		if err != nil {
			e.seriesErr = err
			return
		}
		e.coocSeries = cs
	})
	return e.series, e.coocSeries, e.seriesErr
}

// DiseaseID resolves a scenario disease code.
func (e *Env) DiseaseID(code string) (mic.DiseaseID, error) {
	id, ok := e.Data.Diseases.Lookup(code)
	if !ok {
		return 0, fmt.Errorf("experiments: unknown disease %s", code)
	}
	return mic.DiseaseID(id), nil
}

// MedicineID resolves a scenario medicine code.
func (e *Env) MedicineID(code string) (mic.MedicineID, error) {
	id, ok := e.Data.Medicines.Lookup(code)
	if !ok {
		return 0, fmt.Errorf("experiments: unknown medicine %s", code)
	}
	return mic.MedicineID(id), nil
}

// sampleSeries returns up to max series of a map ordered deterministically.
// Scenario-relevant series (those passed in `prefer`) are kept first.
func capSeries(keys []mic.Pair, max int) []mic.Pair {
	if max <= 0 || len(keys) <= max {
		return keys
	}
	return keys[:max]
}
