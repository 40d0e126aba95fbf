package changepoint

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mictrend/internal/faultpoint"
	"mictrend/internal/obs"
	"mictrend/internal/ssm"
)

// TestExactPrefixEquivalence is the tentpole's selection contract: the
// prefix-checkpointed scan picks the serial exact scan's change point with
// bitwise-identical AIC and NoChangeAIC, across random series (break and
// no-break, seasonal and not) and worker counts, with a worker-invariant
// Fits count and the expected two-ladder resume accounting.
func TestExactPrefixEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many real scans")
	}
	type tc struct {
		seed     uint64
		n        int
		seasonal bool
	}
	cases := []tc{
		{seed: 1, n: 26, seasonal: false},
		{seed: 2, n: 34, seasonal: false},
		{seed: 3, n: 19, seasonal: false},
		{seed: 4, n: 22, seasonal: true},
		{seed: 5, n: 20, seasonal: true},
	}
	for _, c := range cases {
		y := randomSeries(c.seed, c.n)
		want, err := DetectExact(y, c.seasonal)
		if err != nil {
			t.Fatalf("seed %d: serial: %v", c.seed, err)
		}
		var base Result
		for _, workers := range []int{1, 2, 8} {
			stats := &ssm.FitStats{}
			got, err := ExactPrefix(context.Background(), y, c.seasonal, PrefixOptions{
				Workers: workers, Stats: stats,
			})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", c.seed, workers, err)
			}
			if got.ChangePoint != want.ChangePoint || got.AIC != want.AIC || got.NoChangeAIC != want.NoChangeAIC {
				t.Fatalf("seed %d workers %d: prefix %+v != serial %+v", c.seed, workers, got, want)
			}
			if workers == 1 {
				base = got
			} else if got != base {
				t.Fatalf("seed %d workers %d: prefix scan not worker-invariant: %+v != %+v",
					c.seed, workers, got, base)
			}
			// The anchor phase runs 2..4 full ladders (two anchors plus the
			// bounded chase), each one resume per candidate.
			perLadder := int64(maxCandidate(c.n) + 1)
			resumes := stats.PrefixResumes.Load()
			if resumes%perLadder != 0 || resumes < 2*perLadder || resumes > 4*perLadder {
				t.Fatalf("seed %d workers %d: resumes %d, want a small multiple of %d",
					c.seed, workers, resumes, perLadder)
			}
		}
	}
}

// TestExactPrefixProvenance checks the scan's decision record: the full
// ladder in serial order, the no-intervention model cold, every candidate
// tagged prefix/warm/refit, a refit-path winner carrying both AICs, and a
// record identical for any worker count.
func TestExactPrefixProvenance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real scan")
	}
	y := randomSeries(1, 26)
	var prov Provenance
	res, err := ExactPrefix(context.Background(), y, false, PrefixOptions{Provenance: &prov})
	if err != nil {
		t.Fatal(err)
	}
	var wide Provenance
	if _, err := ExactPrefix(context.Background(), y, false, PrefixOptions{Workers: 4, Provenance: &wide}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wide, prov) {
		t.Fatalf("provenance not worker-invariant:\n%+v\n%+v", wide, prov)
	}
	if prov.Method != "exact-prefix" || prov.N != len(y) {
		t.Fatalf("header = %s/%d, want exact-prefix/%d", prov.Method, prov.N, len(y))
	}
	if prov.ChangePoint != res.ChangePoint || prov.AIC != res.AIC || prov.Fits != res.Fits {
		t.Fatalf("provenance outcome %+v does not mirror result %+v", prov, res)
	}
	wantLen := maxCandidate(len(y)) + 2
	if len(prov.Candidates) != wantLen {
		t.Fatalf("ladder has %d rungs, want %d", len(prov.Candidates), wantLen)
	}
	if first := prov.Candidates[0]; first.CP != ssm.NoChangePoint || first.Path != PathCold {
		t.Fatalf("first rung = %+v, want the cold no-intervention fit", first)
	}
	var fitted, screened int
	for i, c := range prov.Candidates[1:] {
		if c.CP != i {
			t.Fatalf("rung %d holds cp %d, want serial order", i+1, c.CP)
		}
		switch c.Path {
		case PathWarm, PathRefit:
			fitted++
		case PathPrefix:
			screened++
		default:
			t.Fatalf("cp %d has path %q", c.CP, c.Path)
		}
		if c.CP == res.ChangePoint {
			if c.Path != PathRefit {
				t.Fatalf("winner's path = %q, want a cold refit", c.Path)
			}
			if c.AIC != res.AIC || c.WarmAIC == 0 {
				t.Fatalf("winner rung %+v does not carry both AICs (result %v)", c, res.AIC)
			}
		}
	}
	if fitted == 0 || screened == 0 {
		t.Fatalf("ladder fitted %d / screened %d; the screen did no work", fitted, screened)
	}
}

// TestExactPrefixFaultInjection covers both fault sites: an injected failure
// at one checkpoint resume aborts the scan with the injected error (the
// pipeline degrades that series), a failure at the winning candidate's fit
// surfaces exactly the error the serial scan returns for it, and a reset
// restores clean scans.
func TestExactPrefixFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real scan")
	}
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Enable(prefixFault, faultpoint.Spec{
		Match: func(detail string) bool { return detail == "7" },
	})
	y := randomSeries(1, 26)
	_, err := ExactPrefix(context.Background(), y, false, PrefixOptions{})
	if err == nil || !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("err = %v, want the injected resume failure", err)
	}
	faultpoint.Reset()
	clean, err := ExactPrefix(context.Background(), y, false, PrefixOptions{})
	if err != nil {
		t.Fatalf("clean scan after reset failed: %v", err)
	}

	victim := strconv.Itoa(clean.ChangePoint)
	faultpoint.Enable(scanFault, faultpoint.Spec{
		Match: func(detail string) bool { return detail == victim },
	})
	_, serialErr := DetectExact(y, false)
	_, prefixErr := ExactPrefix(context.Background(), y, false, PrefixOptions{Workers: 4})
	if serialErr == nil || prefixErr == nil || prefixErr.Error() != serialErr.Error() {
		t.Fatalf("candidate fault: prefix err = %v, serial err = %v", prefixErr, serialErr)
	}
}

// TestExactPrefixPanicPropagates injects a panic into the winning
// candidate's model fit — a fit the scan performs, serially or on a
// contender worker — and checks it re-panics on the calling goroutine
// without leaking workers, so the pipeline's per-series isolation holds.
func TestExactPrefixPanicPropagates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real scans")
	}
	y := randomSeries(1, 26)
	clean, err := ExactPrefix(context.Background(), y, false, PrefixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Detected() {
		t.Fatal("test series should carry a detectable break")
	}
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Enable(scanFault, faultpoint.Spec{
		Panic: true,
		Match: func(detail string) bool { return detail == strconv.Itoa(clean.ChangePoint) },
	})
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		_, _ = ExactPrefix(context.Background(), y, false, PrefixOptions{Workers: 4})
	}()
	if after := waitGoroutines(before); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestExactPrefixCancellation covers both cancellation paths: a context
// cancelled before the scan and one cancelled mid-ladder. Both return the
// context's error verbatim.
func TestExactPrefixCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real scans")
	}
	y := randomSeries(1, 26)
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExactPrefix(pre, y, false, PrefixOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}

	faultpoint.Reset()
	defer faultpoint.Reset()
	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	hits := 0
	faultpoint.Enable(prefixFault, faultpoint.Spec{
		// Never fires; used purely to cancel after a few resumes.
		Match: func(string) bool {
			hits++
			if hits == 5 {
				cancelMid()
			}
			return false
		},
	})
	if _, err := ExactPrefix(ctx, y, false, PrefixOptions{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-scan err = %v, want context.Canceled", err)
	}
}

// TestExactPrefixShortSeries pins the degenerate lengths to the serial
// scan: length 1 is rejected, lengths 2…5 fail with the serial scan's error,
// and at the first admissible length of each model the prefix scan selects
// exactly the serial ChangePoint, AIC and NoChangeAIC.
func TestExactPrefixShortSeries(t *testing.T) {
	if _, err := ExactPrefix(context.Background(), []float64{1}, false, PrefixOptions{}); err == nil {
		t.Fatal("length 1 accepted")
	}
	type tc struct {
		n        int
		seasonal bool
	}
	cases := []tc{{2, false}, {3, false}, {4, false}, {5, false}, {2, true}, {5, true}}
	if !testing.Short() {
		// The first lengths the structural models accept.
		cases = append(cases, tc{6, false}, tc{18, true})
	}
	for _, c := range cases {
		y := randomSeries(uint64(c.n), c.n)
		want, serialErr := DetectExact(y, c.seasonal)
		got, prefixErr := ExactPrefix(context.Background(), y, c.seasonal, PrefixOptions{})
		if (serialErr == nil) != (prefixErr == nil) ||
			(serialErr != nil && serialErr.Error() != prefixErr.Error()) {
			t.Fatalf("n=%d seasonal=%v: serial err = %v, prefix err = %v", c.n, c.seasonal, serialErr, prefixErr)
		}
		if c.n <= 5 && prefixErr == nil {
			t.Fatalf("n=%d seasonal=%v: a series this short fitted", c.n, c.seasonal)
		}
		if c.n > 5 && prefixErr != nil {
			t.Fatalf("n=%d seasonal=%v: first admissible length rejected: %v", c.n, c.seasonal, prefixErr)
		}
		if got.ChangePoint != want.ChangePoint || got.AIC != want.AIC || got.NoChangeAIC != want.NoChangeAIC {
			t.Fatalf("n=%d seasonal=%v: prefix %+v != serial %+v", c.n, c.seasonal, got, want)
		}
	}
}

// TestExactParallelEquivalence pins the deprecated SearchExactParallel name
// to the scan it now runs: Detect returns SearchExactPrefix's Result exactly,
// Fits included, for any worker count.
func TestExactParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real scans")
	}
	for _, seasonal := range []bool{false, true} {
		y := randomSeries(5, 24)
		want, err := Detect(context.Background(), y, DetectOptions{Method: SearchExactPrefix, Seasonal: seasonal})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 4} {
			got, err := Detect(context.Background(), y, DetectOptions{
				Method: SearchExactParallel, Seasonal: seasonal, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(got, want) {
				t.Fatalf("seasonal=%v workers=%d: exact-parallel %+v != exact-prefix %+v", seasonal, workers, got, want)
			}
		}
	}
}

// TestExactParallelEdgeLengths pins the deprecated SearchExactParallel name
// at the degenerate series lengths to the serial scan: length 1 is rejected,
// lengths 2…5 fail with the serial scan's error, and at the first admissible
// length of each model it selects exactly the serial ChangePoint, AIC and
// NoChangeAIC.
func TestExactParallelEdgeLengths(t *testing.T) {
	parallel := func(y []float64, seasonal bool) (Result, error) {
		return Detect(context.Background(), y, DetectOptions{
			Method: SearchExactParallel, Seasonal: seasonal, Workers: 8,
		})
	}
	if _, err := parallel([]float64{1}, false); err == nil {
		t.Fatal("length 1 accepted")
	}
	type tc struct {
		n        int
		seasonal bool
	}
	cases := []tc{{2, false}, {3, false}, {4, false}, {5, false}, {2, true}, {5, true}}
	if !testing.Short() {
		cases = append(cases, tc{6, false}, tc{18, true})
	}
	for _, c := range cases {
		y := randomSeries(uint64(c.n), c.n)
		want, serialErr := DetectExact(y, c.seasonal)
		got, err := parallel(y, c.seasonal)
		if (serialErr == nil) != (err == nil) || (serialErr != nil && serialErr.Error() != err.Error()) {
			t.Fatalf("n=%d seasonal=%v: serial err = %v, exact-parallel err = %v", c.n, c.seasonal, serialErr, err)
		}
		if c.n <= 5 && err == nil {
			t.Fatalf("n=%d seasonal=%v: a series this short fitted", c.n, c.seasonal)
		}
		if c.n > 5 && err != nil {
			t.Fatalf("n=%d seasonal=%v: first admissible length rejected: %v", c.n, c.seasonal, err)
		}
		if got.ChangePoint != want.ChangePoint || got.AIC != want.AIC || got.NoChangeAIC != want.NoChangeAIC {
			t.Fatalf("n=%d seasonal=%v: exact-parallel %+v != serial %+v", c.n, c.seasonal, got, want)
		}
	}
}

// TestExactParallelFaultMatchesSerial injects a fit failure at the winning
// candidate (through the shared changepoint/candidate fault site) and checks
// the deprecated SearchExactParallel name surfaces exactly the error the
// serial scan returns, for any worker count, and leaks no goroutines.
func TestExactParallelFaultMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real scans")
	}
	y := randomSeries(1, 26)
	clean, err := DetectExact(y, false)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Detected() {
		t.Fatal("test series should carry a detectable break")
	}
	faultpoint.Reset()
	defer faultpoint.Reset()
	victim := strconv.Itoa(clean.ChangePoint)
	faultpoint.Enable(scanFault, faultpoint.Spec{
		Match: func(detail string) bool { return detail == victim },
	})
	_, serialErr := DetectExact(y, false)
	if serialErr == nil || !errors.Is(serialErr, faultpoint.ErrInjected) {
		t.Fatalf("serial err = %v, want injected fault", serialErr)
	}
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		_, err := Detect(context.Background(), y, DetectOptions{Method: SearchExactParallel, Workers: workers})
		if err == nil || !errors.Is(err, faultpoint.ErrInjected) {
			t.Fatalf("workers %d: exact-parallel err = %v, want injected fault", workers, err)
		}
		if err.Error() != serialErr.Error() {
			t.Fatalf("workers %d: exact-parallel error %q != serial error %q", workers, err, serialErr)
		}
	}
	if after := waitGoroutines(before); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestExactParallelWarmProvenanceDeterministic pins the deprecated
// SearchExactParallel name's decision record: identical for every worker
// count and to SearchExactPrefix's, refit rungs carry both AICs, and the
// selected candidate's rung holds the result's exact AIC.
func TestExactParallelWarmProvenanceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real scans")
	}
	y := randomSeries(7, 30)
	var want Provenance
	if _, err := Detect(context.Background(), y, DetectOptions{Method: SearchExactPrefix, Provenance: &want}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 5, 8} {
		var p Provenance
		res, err := Detect(context.Background(), y, DetectOptions{
			Method: SearchExactParallel, Workers: workers, Provenance: &p,
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("workers %d: exact-parallel provenance differs from exact-prefix:\n%+v\n%+v", workers, p, want)
		}
		selected := false
		for i, c := range p.Candidates {
			if c.Path == PathRefit && c.WarmAIC == 0 {
				t.Fatalf("refit rung %d lost its warm AIC: %+v", i, c)
			}
			if c.CP == res.ChangePoint {
				selected = true
				if c.AIC != res.AIC {
					t.Fatalf("selected rung AIC %v != result AIC %v", c.AIC, res.AIC)
				}
			}
		}
		if !selected {
			t.Fatalf("workers %d: no rung for the selected change point %d", workers, res.ChangePoint)
		}
	}
}

// TestExactPrefixScanSpans pins the intra-scan span contract: every span is
// on the scan lane, the prefix, contender and refit phases each emit theirs,
// and the span sequence's content is worker-invariant.
func TestExactPrefixScanSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real scans")
	}
	y := randomSeries(1, 26)
	spans := func(workers int) []string {
		tr := obs.NewTracer()
		if _, err := ExactPrefix(context.Background(), y, false, PrefixOptions{
			Workers: workers, Trace: tr.Observe,
		}); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, sp := range tr.Spans() {
			if sp.Cat != "scan" || sp.TID != obs.LaneScan || sp.Err != "" {
				t.Fatalf("span off the scan lane or failed: %+v", sp)
			}
			out = append(out, sp.Name+" "+sp.Detail)
		}
		return out
	}
	base := spans(1)
	seen := map[string]bool{}
	for _, s := range base {
		name, _, _ := strings.Cut(s, " ")
		seen[name] = true
	}
	for _, name := range []string{"scan/prefix", "scan/contenders", "scan/refit"} {
		if !seen[name] {
			t.Fatalf("no %s span in %v", name, base)
		}
	}
	if got := spans(4); !reflect.DeepEqual(got, base) {
		t.Fatalf("span content not worker-invariant:\n%v\n%v", got, base)
	}
}
