package changepoint

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"mictrend/internal/kalman"
	"mictrend/internal/ssm"
)

// twoBreakSeries builds a series with slope shifts at cp1 and cp2.
func twoBreakSeries(n, cp1, cp2 int, s1, s2 float64, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 99))
	y := make([]float64, n)
	level := 15.0
	for t := 0; t < n; t++ {
		level += rng.NormFloat64() * 0.05
		y[t] = level +
			s1*ssm.InterventionRegressor(cp1, t) +
			s2*ssm.InterventionRegressor(cp2, t) +
			rng.NormFloat64()*0.3
	}
	return y
}

func TestDetectMultipleFindsBothBreaks(t *testing.T) {
	cp1, cp2 := 12, 30
	y := twoBreakSeries(43, cp1, cp2, 1.2, -1.5, 1)
	res, err := DetectMultiple(y, MultiOptions{MaxChanges: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Interventions) != 2 {
		t.Fatalf("found %d interventions (%v), want 2", len(res.Interventions), res.Interventions)
	}
	months := []int{res.Interventions[0].Month, res.Interventions[1].Month}
	sort.Ints(months)
	if d := months[0] - cp1; d < -2 || d > 2 {
		t.Fatalf("first break at %d, want ≈%d", months[0], cp1)
	}
	if d := months[1] - cp2; d < -2 || d > 2 {
		t.Fatalf("second break at %d, want ≈%d", months[1], cp2)
	}
	if res.AIC >= res.BaseAIC {
		t.Fatal("final AIC did not improve on the base model")
	}
	if res.Fits == 0 {
		t.Fatal("no fits counted")
	}
}

func TestDetectMultipleStopsAtOneBreak(t *testing.T) {
	y := twoBreakSeries(43, 20, ssm.NoChangePoint, 1.5, 0, 2)
	res, err := DetectMultiple(y, MultiOptions{MaxChanges: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Interventions) != 1 {
		t.Fatalf("found %d interventions (%v), want 1", len(res.Interventions), res.Interventions)
	}
	if d := res.Interventions[0].Month - 20; d < -2 || d > 2 {
		t.Fatalf("break at %d, want ≈20", res.Interventions[0].Month)
	}
}

func TestDetectMultipleNoBreaks(t *testing.T) {
	y := twoBreakSeries(43, ssm.NoChangePoint, ssm.NoChangePoint, 0, 0, 3)
	res, err := DetectMultiple(y, MultiOptions{MaxChanges: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Interventions) != 0 {
		t.Fatalf("stable series got %v", res.Interventions)
	}
	if res.AIC != res.BaseAIC {
		t.Fatal("AIC should equal the base model's")
	}
}

func TestDetectMultipleRespectsMaxChanges(t *testing.T) {
	y := twoBreakSeries(43, 10, 28, 1.5, 1.5, 4)
	res, err := DetectMultiple(y, MultiOptions{MaxChanges: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Interventions) > 1 {
		t.Fatalf("MaxChanges=1 produced %d interventions", len(res.Interventions))
	}
}

func TestDetectMultipleMinGap(t *testing.T) {
	y := twoBreakSeries(43, 20, ssm.NoChangePoint, 2.0, 0, 5)
	res, err := DetectMultiple(y, MultiOptions{MaxChanges: 3, MinGap: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(res.Interventions); i++ {
		for j := i + 1; j < len(res.Interventions); j++ {
			d := res.Interventions[i].Month - res.Interventions[j].Month
			if d < 0 {
				d = -d
			}
			if d < 5 {
				t.Fatalf("breaks %v violate the minimum gap", res.Interventions)
			}
		}
	}
}

func TestDetectMultipleBinaryVariant(t *testing.T) {
	y := twoBreakSeries(43, 22, ssm.NoChangePoint, 1.8, 0, 6)
	res, err := DetectMultiple(y, MultiOptions{MaxChanges: 2, UseBinary: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Interventions) == 0 {
		t.Fatal("binary variant missed an obvious break")
	}
	exactRes, err := DetectMultiple(y, MultiOptions{MaxChanges: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fits >= exactRes.Fits {
		t.Fatalf("binary fits %d not below exact %d", res.Fits, exactRes.Fits)
	}
}

func TestDetectMultipleLevelShiftOnStep(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	cp := 18
	y := make([]float64, 43)
	for t := range y {
		v := 5.0
		if t >= cp {
			v = 11
		}
		y[t] = v + rng.NormFloat64()*0.4
	}
	res, err := DetectMultiple(y, MultiOptions{MaxChanges: 2, Kind: ssm.LevelShift})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Interventions) == 0 {
		t.Fatal("step not detected with level-shift interventions")
	}
	if d := res.Interventions[0].Month - cp; d < -2 || d > 2 {
		t.Fatalf("step at %d, want ≈%d", res.Interventions[0].Month, cp)
	}
	if res.Interventions[0].Kind != ssm.LevelShift {
		t.Fatal("wrong intervention kind recorded")
	}
}

func TestDetectMultipleShortSeries(t *testing.T) {
	if _, err := DetectMultiple([]float64{1}, MultiOptions{}); err == nil {
		t.Fatal("length-1 series accepted")
	}
}

// detectMultipleFullFits is the reference DetectMultiple: the same greedy
// search, scoring every candidate with a full ssm.FitConfigOptions fit.
func detectMultipleFullFits(y []float64, opts MultiOptions) (MultiResult, error) {
	opts = opts.withDefaults()
	n := len(y)
	if n < 2 {
		return MultiResult{}, fmt.Errorf("changepoint: series length %d too short", n)
	}
	fits := 0
	ws := kalman.NewWorkspace()
	aicWith := func(ivs []ssm.Intervention) (float64, error) {
		fits++
		fit, err := ssm.FitConfigOptions(y, ssm.Config{
			Seasonal:    opts.Seasonal,
			ChangePoint: ssm.NoChangePoint,
			Extra:       ivs,
		}, ws, ssm.FitOptions{})
		if err != nil {
			return 0, err
		}
		return fit.AIC, nil
	}
	current := []ssm.Intervention{}
	currentAIC, err := aicWith(nil)
	if err != nil {
		return MultiResult{}, err
	}
	res := MultiResult{BaseAIC: currentAIC}
	for len(current) < opts.MaxChanges {
		eval := func(cp int) (float64, error) {
			if cp == ssm.NoChangePoint {
				return currentAIC, nil
			}
			for _, iv := range current {
				if abs(cp-iv.Month) < opts.MinGap {
					return currentAIC, nil
				}
			}
			trial := append(append([]ssm.Intervention(nil), current...), ssm.Intervention{Kind: opts.Kind, Month: cp})
			return aicWith(trial)
		}
		var step Result
		if opts.UseBinary {
			step, err = Binary(n, eval)
		} else {
			step, err = Exact(n, eval)
		}
		if err != nil {
			return MultiResult{}, err
		}
		if !step.Detected() || step.AIC >= currentAIC {
			break
		}
		current = append(current, ssm.Intervention{Kind: opts.Kind, Month: step.ChangePoint})
		currentAIC = step.AIC
	}
	res.Interventions = current
	res.AIC = currentAIC
	res.Fits = fits
	return res, nil
}

// TestDetectMultipleMatchesFullFits pins DetectMultiple's AIC-only scratch
// fits to the full-fit reference bit for bit — accepted interventions, AIC,
// BaseAIC, fit count and error — over seasonal and non-seasonal models, both
// search drivers and both intervention kinds, and on a series too short for
// the seasonal model. The searches run back to back, so each starts on a
// scratch the previous ones left in another shape.
func TestDetectMultipleMatchesFullFits(t *testing.T) {
	seasonal := twoBreakSeries(43, 18, ssm.NoChangePoint, 1.2, 0, 5)
	for i := range seasonal {
		seasonal[i] += 2 * math.Sin(2*math.Pi*float64(i)/12)
	}
	series := []struct {
		name string
		y    []float64
	}{
		{"two breaks", twoBreakSeries(43, 12, 30, 1.2, -1.5, 1)},
		{"one break", twoBreakSeries(43, 20, ssm.NoChangePoint, 1.5, 0, 2)},
		{"stable", twoBreakSeries(43, ssm.NoChangePoint, ssm.NoChangePoint, 0, 0, 3)},
		{"short", twoBreakSeries(30, 10, 20, 1, 1, 4)},
		{"too short", twoBreakSeries(16, 8, ssm.NoChangePoint, 1, 0, 6)}, // the seasonal fits fail
		{"seasonal break", seasonal},
	}
	cases := []MultiOptions{
		{MaxChanges: 2, UseBinary: true},
		{MaxChanges: 3},
		{MaxChanges: 2, Kind: ssm.LevelShift, MinGap: 4, UseBinary: true},
		{MaxChanges: 2, Seasonal: true, UseBinary: true},
	}
	for _, s := range series {
		for _, opts := range cases {
			got, gotErr := DetectMultiple(s.y, opts)
			want, wantErr := detectMultipleFullFits(s.y, opts)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s %+v: error %v, reference %v", s.name, opts, gotErr, wantErr)
			}
			if math.Float64bits(got.AIC) != math.Float64bits(want.AIC) ||
				math.Float64bits(got.BaseAIC) != math.Float64bits(want.BaseAIC) ||
				got.Fits != want.Fits || !reflect.DeepEqual(got.Interventions, want.Interventions) {
				t.Fatalf("%s %+v:\n got %+v\nwant %+v", s.name, opts, got, want)
			}
		}
	}
}
