package trend

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mictrend/internal/faultpoint"
	"mictrend/internal/obs"
)

// scanAccounting is the name-level footprint one pipeline run leaves in its
// instruments: which counters and timers exist, which spans ran, which
// stages carried per-series progress events, and which stages failed.
type scanAccounting struct {
	Counters   []string
	Timers     []string
	Spans      []string // "Cat Name", plus " stage=…" for degraded series
	SeriesDone []string // event stages of SeriesDone events
	Failures   []string // failure stages
}

// recordAccounting wires a fresh registry, tracer, and observer into opts
// and returns a function that collects the run's footprint once it ends.
func recordAccounting(opts *Options) func(failures []Failure) scanAccounting {
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	var mu sync.Mutex
	done := map[string]bool{}
	opts.Metrics = reg
	opts.Trace = tr.Observe
	opts.Observer = func(e obs.Event) {
		if e.Kind == obs.SeriesDone {
			mu.Lock()
			done[e.Stage] = true
			mu.Unlock()
		}
	}
	return func(failures []Failure) scanAccounting {
		snap := reg.Snapshot()
		spans := map[string]bool{}
		for _, sp := range tr.Spans() {
			s := sp.Cat + " " + sp.Name
			if strings.HasPrefix(sp.Detail, "stage=") {
				s += " " + sp.Detail
			}
			spans[s] = true
		}
		stages := map[string]bool{}
		for _, f := range failures {
			stages[f.Stage.String()] = true
		}
		return scanAccounting{
			Counters:   sortedKeys(snap.Counters),
			Timers:     sortedKeys(snap.Timings),
			Spans:      sortedKeys(spans),
			SeriesDone: sortedKeys(done),
			Failures:   sortedKeys(stages),
		}
	}
}

// TestScanAccountingNames pins, name for name, what the detect, surveil and
// surveil-drill scan stages report: counter and timer names, span
// categories and names with their failure details, SeriesDone stages and
// failure stages. Analyze runs with one injected detect failure; a
// standalone Surveil (no reused Analysis, so detected classes drill down to
// their medicines) runs with one injected failure on a class-group scan and
// one on a drill-down scan. Every stage registers its <family>/memo_hits
// counter, hits or not. perfbench reads scan/series, scan/total_fits,
// surveil/total_fits and time/stage/detect by name.
func TestScanAccountingNames(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	ds, _, h := surveilEnv(t)
	faultpoint.Reset()
	defer faultpoint.Reset()

	faultpoint.Enable("trend/detect", faultpoint.Spec{Count: 1})
	opts := surveilOpts(h)
	collect := recordAccounting(&opts.Pipeline)
	analysis, err := Analyze(context.Background(), ds, opts.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	gotDetect := collect(analysis.Failures)

	// Match runs under the faultpoint lock, so the flags need no guard.
	var groupHit, drillHit bool
	faultpoint.Enable("trend/surveil", faultpoint.Spec{Match: func(detail string) bool {
		switch {
		case !groupHit && strings.HasPrefix(detail, "class-group:"):
			groupHit = true
			return true
		case !drillHit && strings.HasPrefix(detail, "medicine:"):
			drillHit = true
			return true
		}
		return false
	}})
	opts = surveilOpts(h)
	collect = recordAccounting(&opts.Pipeline)
	surv, err := Surveil(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !groupHit || !drillHit || surv.DrillFits == 0 {
		t.Fatalf("fault hits group=%v drill=%v, drill fits %d: the run did not exercise both surveil stages",
			groupHit, drillHit, surv.DrillFits)
	}
	gotSurveil := collect(surv.Failures)

	wantDetect := scanAccounting{
		Counters: []string{
			"em/iterations", "em/months_fitted", "kalman/steady_hits",
			"pipeline/failures/detect", "scan/candidates", "scan/fits",
			"scan/memo_hits", "scan/prefix_resumes", "scan/series", "scan/total_fits",
			"scan/warm_refits", "ssm/fit_failures", "ssm/lik_evals",
			"ssm/restarts", "ssm/starts", "trend/months_prepared",
			"trend/months_reproduced",
		},
		Timers: []string{
			"time/em/iterate", "time/scan/series", "time/stage/detect",
			"time/stage/model", "time/stage/reproduce",
		},
		Spans: []string{
			"detect detect/series", "detect detect/series stage=detect",
			"em em/month", "scan scan/contenders", "scan scan/prefix",
			"scan scan/refit", "stage stage/detect", "stage stage/model",
			"stage stage/reproduce",
		},
		SeriesDone: []string{"detect"},
		Failures:   []string{"detect"},
	}
	wantSurveil := scanAccounting{
		Counters: []string{
			"em/iterations", "em/months_fitted", "kalman/steady_hits",
			"pipeline/failures/surveil", "scan/prefix_resumes",
			"ssm/fit_failures", "ssm/lik_evals", "ssm/restarts", "ssm/starts",
			"surveil-drill/fits", "surveil-drill/memo_hits", "surveil-drill/series",
			"surveil/detections", "surveil/fits", "surveil/memo_hits",
			"surveil/nodes", "surveil/offset_pairs",
			"surveil/series", "surveil/total_fits", "trend/months_prepared",
			"trend/months_reproduced",
		},
		Timers: []string{
			"time/em/iterate", "time/stage/model", "time/stage/reproduce",
			"time/stage/surveil", "time/stage/surveil-drill",
			"time/surveil-drill/series", "time/surveil/series",
		},
		Spans: []string{
			"em em/month", "scan scan/contenders", "scan scan/prefix",
			"scan scan/refit", "stage stage/model", "stage stage/reproduce",
			"stage stage/surveil", "stage stage/surveil-drill",
			"surveil surveil-drill/series",
			"surveil surveil-drill/series stage=surveil",
			"surveil surveil/series", "surveil surveil/series stage=surveil",
		},
		SeriesDone: []string{"surveil", "surveil-drill"},
		Failures:   []string{"surveil"},
	}
	if !reflect.DeepEqual(gotDetect, wantDetect) {
		t.Errorf("Analyze accounting:\n got %#v\nwant %#v", gotDetect, wantDetect)
	}
	if !reflect.DeepEqual(gotSurveil, wantSurveil) {
		t.Errorf("Surveil accounting:\n got %#v\nwant %#v", gotSurveil, wantSurveil)
	}
}
