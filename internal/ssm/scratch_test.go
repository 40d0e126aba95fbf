package ssm

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"mictrend/internal/faultpoint"
)

// scratchCase is one AIC-only fit of TestScratchReuseMatchesFresh.
type scratchCase struct {
	name  string
	y     []float64
	cfg   Config
	start []float64 // warm start, nil for a cold fit
	fault string    // fault point armed for the fit, "" for none
}

// TestScratchReuseMatchesFresh drives one Scratch through a shuffled
// sequence of AIC-only fits and checks each against the same fit on a fresh
// scratch: the AIC and OptParams bits, the error and every FitStats counter
// must be identical, so nothing a scratch keeps from one fit to the next can
// reach a result. The fits mix seasonal and non-seasonal models (and a
// seasonal period other than 12), every candidate change point of the
// non-seasonal scans, cold and warm starts, series of different lengths,
// the gappy, constant, all-missing and too-short series of
// TestAICAtMatchesFitConfig, Extra interventions, a warm start of the wrong
// length, and fits under the ssm/fit-attempt and ssm/fit-bracket fault
// points.
func TestScratchReuseMatchesFresh(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()

	gappy := synthSeries(30, 2, 15, 0.5, 0.3, 11)
	gappy[7], gappy[25] = math.NaN(), math.NaN()
	allMissing := make([]float64, 30)
	for i := range allMissing {
		allMissing[i] = math.NaN()
	}
	series := []struct {
		name string
		y    []float64
		// seasonal selects the seasonal fits made of the series: every
		// candidate for the non-seasonal model, but only a few seasonal
		// ones, whose fits cost a hundred times more.
		seasonal bool
	}{
		{"break43", synthSeries(43, 2, 20, 0.5, 0.3, 3), true},
		{"break24", synthSeries(24, 0, 10, 1, 0.3, 4), false},
		{"noise37", synthSeries(37, 1, NoChangePoint, 0, 0.5, 5), true},
		{"gappy", gappy, true},
		{"constant", make([]float64, 30), true},
		{"all-missing", allMissing, false},
		{"short", synthSeries(8, 2, 3, 0.5, 0.3, 5), true},
	}
	warm := map[bool][]float64{false: {math.Log(0.1)}, true: {math.Log(0.1), math.Log(0.05)}}
	var cases []scratchCase
	add := func(name string, y []float64, cfg Config, start []float64, fault string) {
		cases = append(cases, scratchCase{name: name, y: y, cfg: cfg.withDefaults(), start: start, fault: fault})
	}
	for _, s := range series {
		n := len(s.y)
		for cp := NoChangePoint; cp <= n-3; cp++ {
			cfg := Config{ChangePoint: cp}
			add(s.name, s.y, cfg, nil, "")
			add(s.name, s.y, cfg, warm[false], "")
		}
		if !s.seasonal {
			continue
		}
		for _, cp := range []int{NoChangePoint, 0, n / 2, n - 3} {
			cfg := Config{Seasonal: true, ChangePoint: cp}
			add(s.name+"/seasonal", s.y, cfg, nil, "")
			add(s.name+"/seasonal", s.y, cfg, warm[true], "")
		}
	}
	y := series[0].y
	add("extra", y, Config{ChangePoint: 10, Extra: []Intervention{{Kind: LevelShift, Month: 25}}}, nil, "")
	add("extra", y, Config{ChangePoint: 10, Extra: []Intervention{{Kind: LevelShift, Month: 25}, {Month: 10}}}, warm[false], "")
	add("extra-only", y, Config{ChangePoint: NoChangePoint, Extra: []Intervention{{Kind: LevelShift, Month: 30}, {Month: NoChangePoint}}}, nil, "")
	add("extra/seasonal", y, Config{Seasonal: true, ChangePoint: 20, Extra: []Intervention{{Kind: LevelShift, Month: 5}}}, warm[true], "")
	add("period4", y, Config{Seasonal: true, Period: 4, ChangePoint: 20}, nil, "")
	add("period4", y, Config{Seasonal: true, Period: 4, ChangePoint: NoChangePoint}, warm[true], "")
	add("bad-warm", y, Config{ChangePoint: 20}, warm[true], "")
	add("out-of-range", y, Config{ChangePoint: len(y)}, nil, "")
	for _, cp := range []int{NoChangePoint, 20} {
		add("attempt-fault", y, Config{ChangePoint: cp}, nil, "ssm/fit-attempt")
		add("attempt-fault", y, Config{ChangePoint: cp}, warm[false], "ssm/fit-attempt")
		add("bracket-fault", y, Config{ChangePoint: cp}, nil, "ssm/fit-bracket")
	}
	add("attempt-fault/seasonal", y, Config{Seasonal: true, ChangePoint: 20}, nil, "ssm/fit-attempt")

	rng := rand.New(rand.NewPCG(32, 1))
	rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	shared := new(Scratch)
	compared, failed := 0, 0
	for _, c := range cases {
		if c.fault != "" {
			// The first start's attempt fails, or every bracket check does;
			// both fire on every matching hit, so the fresh fit sees the
			// same faults.
			faultpoint.Enable(c.fault, faultpoint.Spec{Match: func(detail string) bool {
				return c.fault != "ssm/fit-attempt" || detail == "1"
			}})
		}
		var reusedStats, freshStats FitStats
		aic, opt, err := AICAtOptions(c.y, c.cfg, shared, FitOptions{Start: c.start, Stats: &reusedStats})
		opt = append([]float64(nil), opt...)
		wantAIC, wantOpt, wantErr := AICAtOptions(c.y, c.cfg, nil, FitOptions{Start: c.start, Stats: &freshStats})
		faultpoint.Reset()

		label := func() string {
			return fmt.Sprintf("%s (seasonal %v, period %d, cp %d, extra %v, start %v, fault %q)",
				c.name, c.cfg.Seasonal, c.cfg.Period, c.cfg.ChangePoint, c.cfg.Extra, c.start, c.fault)
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: reused scratch error %v, fresh %v", label(), err, wantErr)
		}
		if err != nil {
			var oe, wantOE *OptimizationError
			if err.Error() != wantErr.Error() || errors.Is(err, ErrSeriesTooShort) != errors.Is(wantErr, ErrSeriesTooShort) ||
				errors.As(err, &oe) != errors.As(wantErr, &wantOE) {
				t.Fatalf("%s: reused scratch error %v, fresh %v", label(), err, wantErr)
			}
			failed++
		} else {
			if math.Float64bits(aic) != math.Float64bits(wantAIC) {
				t.Fatalf("%s: AIC %v on the reused scratch, %v on a fresh one", label(), aic, wantAIC)
			}
			if len(opt) != len(wantOpt) {
				t.Fatalf("%s: OptParams %v on the reused scratch, %v on a fresh one", label(), opt, wantOpt)
			}
			for i := range opt {
				if math.Float64bits(opt[i]) != math.Float64bits(wantOpt[i]) {
					t.Fatalf("%s: OptParams %v on the reused scratch, %v on a fresh one", label(), opt, wantOpt)
				}
			}
			compared++
		}
		got := [...]int64{reusedStats.Fits.Load(), reusedStats.LikEvals.Load(), reusedStats.Starts.Load(), reusedStats.Restarts.Load(), reusedStats.FitFailures.Load()}
		want := [...]int64{freshStats.Fits.Load(), freshStats.LikEvals.Load(), freshStats.Starts.Load(), freshStats.Restarts.Load(), freshStats.FitFailures.Load()}
		if got != want {
			t.Fatalf("%s: stats (fits, evals, starts, restarts, failures) %v on the reused scratch, %v on a fresh one", label(), got, want)
		}
	}
	if compared == 0 || failed == 0 {
		t.Fatalf("%d fits compared, %d failures compared; the cases should cover both", compared, failed)
	}
	t.Logf("%d fits on one scratch: %d compared, %d failures", len(cases), compared, failed)
}
