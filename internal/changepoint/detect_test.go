package changepoint

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"mictrend/internal/ssm"
)

// valleyAIC builds a synthetic AIC function with a minimum at trueCP; the
// no-change model scores noneAIC.
func valleyAIC(trueCP int, depth, noneAIC float64) AICFunc {
	return func(cp int) (float64, error) {
		if cp == ssm.NoChangePoint {
			return noneAIC, nil
		}
		d := float64(cp - trueCP)
		return noneAIC - depth + d*d*0.5, nil
	}
}

func TestExactFindsValleyMinimum(t *testing.T) {
	res, err := Exact(43, valleyAIC(20, 30, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.ChangePoint != 20 {
		t.Fatalf("cp = %d, want 20", res.ChangePoint)
	}
	if !res.Detected() {
		t.Fatal("should detect")
	}
	if res.Fits != 42 { // 41 admissible candidates + no-change model
		t.Fatalf("fits = %d, want 42", res.Fits)
	}
	if res.NoChangeAIC != 100 {
		t.Fatalf("NoChangeAIC = %v", res.NoChangeAIC)
	}
}

func TestExactPrefersNoChangeOnFlatCurve(t *testing.T) {
	// Intervention never improves: every candidate AIC above the none AIC.
	f := func(cp int) (float64, error) {
		if cp == ssm.NoChangePoint {
			return 50, nil
		}
		return 52 + float64(cp%3), nil
	}
	res, err := Exact(43, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected() {
		t.Fatalf("false positive at %d", res.ChangePoint)
	}
	if res.AIC != 50 {
		t.Fatalf("AIC = %v", res.AIC)
	}
}

func TestExactTieGoesToNoChange(t *testing.T) {
	f := func(cp int) (float64, error) { return 10, nil }
	res, err := Exact(10, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected() {
		t.Fatal("tie should prefer no change point")
	}
}

func TestBinaryMatchesExactOnUnimodalCurve(t *testing.T) {
	for trueCP := 1; trueCP < 42; trueCP += 4 {
		exact, err := Exact(43, valleyAIC(trueCP, 25, 100))
		if err != nil {
			t.Fatal(err)
		}
		binary, err := Binary(43, valleyAIC(trueCP, 25, 100))
		if err != nil {
			t.Fatal(err)
		}
		if exact.ChangePoint != binary.ChangePoint {
			t.Fatalf("trueCP %d: exact %d vs binary %d", trueCP, exact.ChangePoint, binary.ChangePoint)
		}
	}
}

func TestBinaryUsesLogarithmicFits(t *testing.T) {
	res, err := Binary(43, valleyAIC(21, 25, 100))
	if err != nil {
		t.Fatal(err)
	}
	// log2(43) ≈ 5.4 levels; with shared endpoints and the final no-change
	// comparison the fit count must stay far below the exact method's 44.
	if res.Fits > 12 {
		t.Fatalf("binary used %d fits, want ≤ 12", res.Fits)
	}
	if res.Fits < 3 {
		t.Fatalf("binary used suspiciously few fits: %d", res.Fits)
	}
}

func TestBinaryNeverFalsePositive(t *testing.T) {
	// Whatever shape the candidate curve has, if no candidate beats the
	// no-change AIC the binary method must return no change point.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		n := 10 + int(seed%40)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 100 + rng.Float64()*50 // all worse than none=99
		}
		af := func(cp int) (float64, error) {
			if cp == ssm.NoChangePoint {
				return 99, nil
			}
			return vals[cp], nil
		}
		res, err := Binary(n, af)
		return err == nil && !res.Detected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryDetectedPointAlwaysBeatsNone(t *testing.T) {
	// Property: whenever binary reports a change point, its AIC is strictly
	// better than the no-change AIC — the "no false positives vs the
	// no-change decision" guarantee of Table VI.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 8))
		n := 8 + int(seed%40)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 50 + rng.NormFloat64()*20
		}
		none := 55.0
		af := func(cp int) (float64, error) {
			if cp == ssm.NoChangePoint {
				return none, nil
			}
			return vals[cp], nil
		}
		res, err := Binary(n, af)
		if err != nil {
			return false
		}
		if res.Detected() {
			return vals[res.ChangePoint] < none
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDetectorsOnRealSeries(t *testing.T) {
	// A genuine slope-shift series: both detectors must find a change point
	// near the truth; binary must be cheaper.
	rng := rand.New(rand.NewPCG(5, 6))
	n, cp := 43, 24
	y := make([]float64, n)
	level := 5.0
	for i := range y {
		level += rng.NormFloat64() * 0.05
		y[i] = level + 1.2*ssm.InterventionRegressor(cp, i) + rng.NormFloat64()*0.4
	}
	exact, err := DetectExact(y, false)
	if err != nil {
		t.Fatal(err)
	}
	binary, err := DetectBinary(y, false)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Detected() {
		t.Fatal("exact missed an obvious break")
	}
	if got := exact.ChangePoint; got < cp-2 || got > cp+2 {
		t.Fatalf("exact cp = %d, want ≈%d", got, cp)
	}
	if !binary.Detected() {
		t.Fatal("binary missed an obvious break")
	}
	if got := binary.ChangePoint; got < cp-4 || got > cp+4 {
		t.Fatalf("binary cp = %d, want ≈%d", got, cp)
	}
	if binary.Fits >= exact.Fits {
		t.Fatalf("binary fits %d not cheaper than exact %d", binary.Fits, exact.Fits)
	}
}

func TestDetectorsOnStableSeries(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	y := make([]float64, 43)
	for i := range y {
		y[i] = 5 + rng.NormFloat64()*0.3
	}
	exact, err := DetectExact(y, false)
	if err != nil {
		t.Fatal(err)
	}
	binary, err := DetectBinary(y, false)
	if err != nil {
		t.Fatal(err)
	}
	// The key Table VI property: binary never claims a change the exact
	// search rejects.
	if !exact.Detected() && binary.Detected() {
		t.Fatalf("binary found %d where exact found none", binary.ChangePoint)
	}
}

func TestShortSeriesRejected(t *testing.T) {
	f := valleyAIC(0, 1, 10)
	if _, err := Exact(1, f); err == nil {
		t.Fatal("exact accepted length 1")
	}
	if _, err := Binary(1, f); err == nil {
		t.Fatal("binary accepted length 1")
	}
}

func TestEvaluatorErrorPropagates(t *testing.T) {
	sentinel := errors.New("boom")
	f := func(cp int) (float64, error) { return 0, sentinel }
	if _, err := Exact(10, f); !errors.Is(err, sentinel) {
		t.Fatalf("exact err = %v", err)
	}
	if _, err := Binary(10, f); !errors.Is(err, sentinel) {
		t.Fatalf("binary err = %v", err)
	}
}

func TestEvaluatorCaches(t *testing.T) {
	calls := 0
	f := func(cp int) (float64, error) {
		calls++
		return math.Abs(float64(cp - 5)), nil
	}
	e := newEvaluator(f)
	for i := 0; i < 3; i++ {
		if _, err := e.aic(4); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 || e.fits != 1 {
		t.Fatalf("calls = %d, fits = %d; caching broken", calls, e.fits)
	}
}

// TestContextAICCancelsMidScan cancels the context after a fixed number of
// fits and checks the exact scan stops within one further evaluation.
func TestContextAICCancelsMidScan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	f := func(cp int) (float64, error) {
		evals++
		if evals == 5 {
			cancel()
		}
		return valleyAIC(20, 30, 100)(cp)
	}
	_, err := Exact(43, ContextAIC(ctx, f))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if evals != 5 {
		t.Fatalf("scan performed %d fits after cancellation at 5", evals-5)
	}
}

func TestDetectContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	y := make([]float64, 30)
	for i := range y {
		y[i] = float64(i)
	}
	for _, method := range []SearchMethod{SearchExact, SearchBinary} {
		if _, err := Detect(ctx, y, DetectOptions{Method: method}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v err = %v, want context.Canceled", method, err)
		}
	}
}

func TestContextAICNilContextPassesThrough(t *testing.T) {
	f := valleyAIC(10, 20, 80)
	res, err := Exact(30, ContextAIC(nil, f))
	if err != nil {
		t.Fatal(err)
	}
	if res.ChangePoint != 10 {
		t.Fatalf("cp = %d, want 10", res.ChangePoint)
	}
}

// TestConcurrentDetectsMatchSerial runs searches of every method from
// several goroutines at once, so they take and return the pooled fit
// scratches concurrently (the prefix scan's contender workers too), and
// checks each result and provenance against the same search run alone.
func TestConcurrentDetectsMatchSerial(t *testing.T) {
	methods := []SearchMethod{SearchBinary, SearchExact, SearchExactPrefix}
	type job struct {
		y    []float64
		opts DetectOptions
	}
	var jobs []job
	for seed := uint64(1); seed <= 6; seed++ {
		for _, m := range methods {
			jobs = append(jobs, job{randomSeries(seed, 20+int(seed)*3), DetectOptions{Method: m, Workers: 2}})
		}
	}
	want := make([]Result, len(jobs))
	wantProv := make([]Provenance, len(jobs))
	for i, j := range jobs {
		opts := j.opts
		opts.Provenance = &wantProv[i]
		var err error
		if want[i], err = Detect(context.Background(), j.y, opts); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]Result, len(jobs))
	gotProv := make([]Provenance, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := j.opts
			opts.Provenance = &gotProv[i]
			got[i], errs[i] = Detect(context.Background(), j.y, opts)
		}()
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if !resultsEqual(got[i], want[i]) || !reflect.DeepEqual(gotProv[i], wantProv[i]) {
			t.Fatalf("job %d (%v): concurrent %+v, alone %+v", i, jobs[i].opts.Method, got[i], want[i])
		}
	}
}
