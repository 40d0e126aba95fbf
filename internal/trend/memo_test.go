package trend

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mictrend/internal/changepoint"
	"mictrend/internal/faultpoint"
	"mictrend/internal/mic"
	"mictrend/internal/micgen"
	"mictrend/internal/obs"
)

// memoCorpus generates a corpus whose series repeat one another bit for bit:
// the hay fever, heatstroke, influenza, hypertension and arthritis scenarios
// alone, where each surviving disease keeps one medicine (so its disease,
// medicine and prescription series coincide), rolled up the catalog's
// hierarchy, whose classes and groups here have a single member each.
func memoCorpus(t *testing.T) (*mic.Dataset, Hierarchy) {
	t.Helper()
	const months = 24
	full := micgen.NewCatalog(months, 0, 0, nil)
	keep := map[string]bool{
		micgen.DiseaseHayFever: true, micgen.DiseaseHeatstroke: true, micgen.DiseaseInfluenza: true,
		micgen.DiseaseHypertension: true, micgen.DiseaseArthritis: true,
	}
	cat := &micgen.Catalog{Cities: full.Cities, ClassGroups: full.ClassGroups}
	for _, d := range full.Diseases {
		if keep[d.Code] {
			cat.Diseases = append(cat.Diseases, d)
		}
	}
	kept := map[string]bool{}
	for _, m := range full.Medicines {
		var inds []micgen.Indication
		for _, ind := range m.Indications {
			if keep[ind.Disease] {
				inds = append(inds, ind)
			}
		}
		if len(inds) == 0 || (m.GenericOf != "" && !kept[m.GenericOf]) {
			continue
		}
		m.Indications = inds
		kept[m.Code] = true
		cat.Medicines = append(cat.Medicines, m)
	}
	ds, _, err := micgen.Generate(micgen.Config{Seed: 3, Months: months, RecordsPerMonth: 300, Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	return ds, HierarchyFromCodes(ds, cat.MedicineClasses(), cat.ClassGroupCodes(), cat.DiseaseGroups())
}

func memoOpts() Options {
	opts := DefaultOptions()
	opts.Method = MethodExact
	opts.Seasonal = false
	return opts
}

// detectDirect is the memo-free reference: one changepoint.Detect call on
// series with the pipeline's scan options.
func detectDirect(t *testing.T, series []float64, opts Options) (changepoint.Result, *changepoint.Provenance) {
	t.Helper()
	dopts := changepoint.DetectOptions{Method: changepoint.SearchExactPrefix, Seasonal: opts.Seasonal, Workers: 1}
	if opts.Method == MethodBinary {
		dopts.Method = changepoint.SearchBinary
	}
	if opts.Explain {
		dopts.Provenance = &changepoint.Provenance{}
	}
	res, err := changepoint.Detect(context.Background(), series, dopts)
	if err != nil {
		t.Fatal(err)
	}
	return res, dopts.Provenance
}

// explainBytes writes a's explain artifacts and returns every file's bytes
// by relative path.
func explainBytes(t *testing.T, a *Analysis, opts Options) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	if err := WriteExplain(dir, a, BuildManifest(opts, a)); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		out[strings.TrimPrefix(path, dir)] = raw
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// memoRun is one Analyze and a Surveil reusing it, with their metrics and
// trace.
type memoRun struct {
	a        *Analysis
	s        *Surveillance
	counters map[string]int64
	spans    []obs.SpanEvent
}

func runMemo(t *testing.T, ds *mic.Dataset, h Hierarchy, opts Options) memoRun {
	t.Helper()
	reg, tr := obs.NewRegistry(), obs.NewTracer()
	opts.Metrics, opts.Trace = reg, tr.Observe
	a, err := Analyze(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Surveil(context.Background(), ds, SurveilOptions{Hierarchy: h, Pipeline: opts, Analysis: a})
	if err != nil {
		t.Fatal(err)
	}
	return memoRun{a: a, s: s, counters: reg.Snapshot().Counters, spans: tr.Spans()}
}

// TestScanMemoMatchesDirectScans pins the memo's byte-identity contract: on
// a corpus where most series repeat another, Analyze and a Surveil reusing
// it return exactly what one changepoint.Detect per series returns —
// Results, Fits, fit totals and provenance, hence the explain artefacts —
// for every Workers split, with and without Explain; Shards is a deprecated
// no-op, pinned by one nonzero value on the last split. Memo hits keep
// their per-series span (tagged memo=<representative>) and SeriesDone event.
func TestScanMemoMatchesDirectScans(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	ds, h := memoCorpus(t)
	for _, explain := range []bool{false, true} {
		var wantA, wantS []byte
		var wantExplain map[string][]byte
		for _, split := range []struct{ workers, shards int }{{1, 0}, {2, 0}, {4, 3}} {
			workers, shards := split.workers, split.shards
			opts := memoOpts()
			opts.Workers, opts.Shards, opts.Explain = workers, shards, explain
			run := runMemo(t, ds, h, opts)
			a, s := run.a, run.s
			if len(a.Failures) != 0 || len(s.Failures) != 0 {
				t.Fatalf("failures: %v %v", a.Failures, s.Failures)
			}
			gotA, err := json.Marshal([]any{a.Diseases, a.Medicines, a.Prescriptions, a.TotalFits, a.SeriesProvenance})
			if err != nil {
				t.Fatal(err)
			}
			var report bytes.Buffer
			if err := s.WriteReport(&report, ds); err != nil {
				t.Fatal(err)
			}
			gotS := append(surveilJSON(t, s), report.Bytes()...)
			if wantA != nil {
				if !bytes.Equal(gotA, wantA) || !bytes.Equal(gotS, wantS) {
					t.Fatalf("explain=%v workers=%d shards=%d: output differs from workers=1", explain, workers, shards)
				}
				if explain && !reflect.DeepEqual(explainBytes(t, a, opts), wantExplain) {
					t.Fatalf("workers=%d shards=%d: explain artefacts differ", workers, shards)
				}
				continue
			}
			wantA, wantS = gotA, gotS

			// The first split is checked against the memo-free reference.
			leaves := len(a.Diseases) + len(a.Medicines) + len(a.Prescriptions)
			if hits := run.counters["scan/memo_hits"]; hits == 0 || hits >= int64(leaves) {
				t.Fatalf("scan/memo_hits = %d of %d leaves: the corpus does not exercise the memo", hits, leaves)
			}
			if hits := run.counters["surveil/memo_hits"]; hits == 0 {
				t.Fatal("surveil/memo_hits = 0: the reused analysis did not seed the memo")
			}
			ref := *a
			ref.SeriesProvenance = append([]SeriesProvenance(nil), a.SeriesProvenance...)
			fits, i := 0, 0
			for _, dets := range [][]Detection{a.Diseases, a.Medicines, a.Prescriptions} {
				for _, det := range dets {
					res, prov := detectDirect(t, det.Series, opts)
					if det.Result != res {
						t.Fatalf("%s: memo result %+v, direct %+v", det.Key(), det.Result, res)
					}
					fits += res.Fits
					if explain {
						if ref.SeriesProvenance[i].Key != det.Key().String() {
							t.Fatalf("provenance %d is %s, want %s", i, ref.SeriesProvenance[i].Key, det.Key())
						}
						ref.SeriesProvenance[i].Scan = prov
					}
					i++
				}
			}
			if a.TotalFits != fits {
				t.Fatalf("TotalFits = %d, direct scans spent %d", a.TotalFits, fits)
			}
			aggFits := 0
			for i := range s.Nodes {
				res, prov := detectDirect(t, s.Nodes[i].Series, opts)
				if s.Nodes[i].Result != res {
					t.Fatalf("%s: memo result %+v, direct %+v", s.Nodes[i].Key, s.Nodes[i].Result, res)
				}
				if explain && !reflect.DeepEqual(s.Provenance[i].Scan, prov) {
					t.Fatalf("%s: memo provenance differs from a direct scan's", s.Nodes[i].Key)
				}
				aggFits += res.Fits
			}
			if s.AggregateFits != aggFits {
				t.Fatalf("AggregateFits = %d, direct scans spent %d", s.AggregateFits, aggFits)
			}
			if explain {
				wantExplain = explainBytes(t, &ref, opts)
				if got := explainBytes(t, a, opts); !reflect.DeepEqual(got, wantExplain) {
					t.Fatal("explain artefacts differ from the direct scans'")
				}
				rep, dup := repeatedLeaf(t, a)
				scans := map[string]*changepoint.Provenance{}
				for _, sp := range a.SeriesProvenance {
					scans[sp.Key] = sp.Scan
				}
				if scans[rep] == scans[dup] {
					t.Fatal("a memo hit shares its representative's provenance record")
				}
			}

			// Every series keeps its span; memo hits name their
			// representative.
			memoSpans := map[string]int64{}
			for _, sp := range run.spans {
				if strings.HasSuffix(sp.Name, "/series") {
					memoSpans[sp.Name+" total"]++
					if strings.Contains(sp.Detail, " memo=") {
						memoSpans[sp.Name]++
					}
				}
			}
			want := map[string]int64{
				"detect/series total":  int64(leaves),
				"detect/series":        run.counters["scan/memo_hits"],
				"surveil/series total": int64(len(s.Nodes)),
				"surveil/series":       run.counters["surveil/memo_hits"],
			}
			if !reflect.DeepEqual(memoSpans, want) {
				t.Fatalf("per-series spans %v, want %v", memoSpans, want)
			}
		}
	}
}

// TestScanMemoSeedNeedsMatchingOptions: a Surveil that reuses an Analysis
// scanned with other options (here, without the seasonal component) must
// not copy its leaf scans; it equals a Surveil over the same Analysis with
// no memo seed.
func TestScanMemoSeedNeedsMatchingOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	ds, h := memoCorpus(t)
	a, err := Analyze(context.Background(), ds, memoOpts())
	if err != nil {
		t.Fatal(err)
	}
	surveil := func(a *Analysis) (*Surveillance, int64) {
		popts := memoOpts()
		popts.Seasonal = true
		popts.Metrics = obs.NewRegistry()
		s, err := Surveil(context.Background(), ds, SurveilOptions{Hierarchy: h, Pipeline: popts, Analysis: a})
		if err != nil {
			t.Fatal(err)
		}
		return s, popts.Metrics.Snapshot().Counters["surveil/memo_hits"]
	}
	got, gotHits := surveil(a)
	unseeded := *a
	unseeded.scan = scanConfig{}
	want, wantHits := surveil(&unseeded)
	if !bytes.Equal(surveilJSON(t, got), surveilJSON(t, want)) {
		t.Fatal("surveillance over an analysis with other scan options differs from an unseeded one")
	}
	if gotHits != wantHits {
		t.Fatalf("surveil/memo_hits = %d, unseeded %d: the memo was seeded", gotHits, wantHits)
	}
	popts := memoOpts()
	popts.Seasonal = true
	for i := range got.Nodes {
		if res, _ := detectDirect(t, got.Nodes[i].Series, popts); got.Nodes[i].Result != res {
			t.Fatalf("%s: result %+v, direct seasonal scan %+v", got.Nodes[i].Key, got.Nodes[i].Result, res)
		}
	}
}

// repeatedLeaf returns a representative leaf key and the key of a later leaf
// whose series repeats it bit for bit.
func repeatedLeaf(t *testing.T, a *Analysis) (rep, dup string) {
	t.Helper()
	var dets []Detection
	for _, group := range [][]Detection{a.Diseases, a.Medicines, a.Prescriptions} {
		dets = append(dets, group...)
	}
	for i := range dets {
		for j := i + 1; j < len(dets); j++ {
			if sameBits(dets[i].Series, dets[j].Series) {
				return dets[i].Key().String(), dets[j].Key().String()
			}
		}
	}
	t.Fatal("corpus has no repeated leaf series")
	return "", ""
}

// TestScanMemoKeyedFaults: the memo never spreads or hides a keyed fault. A
// trend/detect fault keyed to a duplicate fails that key only, error or
// panic; one keyed to a representative fails it alone, and its duplicates
// are scanned themselves, with the clean run's results.
func TestScanMemoKeyedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	ds, _ := memoCorpus(t)
	faultpoint.Reset()
	defer faultpoint.Reset()
	clean, err := Analyze(context.Background(), ds, memoOpts())
	if err != nil {
		t.Fatal(err)
	}
	rep, dup := repeatedLeaf(t, clean)
	cleanDets := detectionsByKey(clean)
	for _, tc := range []struct {
		name, victim string
		panic        bool
	}{
		{"duplicate", dup, false},
		{"duplicate-panic", dup, true},
		{"representative", rep, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faultpoint.Reset()
			defer faultpoint.Reset()
			faultpoint.Enable("trend/detect", faultpoint.Spec{
				Panic: tc.panic,
				Match: func(detail string) bool { return detail == tc.victim },
			})
			for _, workers := range []int{1, 3} {
				opts := memoOpts()
				opts.Workers = workers
				faulty, err := Analyze(context.Background(), ds, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(faulty.Failures) != 1 || faulty.Failures[0].Key().String() != tc.victim || faulty.Failures[0].Panicked != tc.panic {
					t.Fatalf("workers=%d: failures = %+v, want one on %s (panicked=%v)", workers, faulty.Failures, tc.victim, tc.panic)
				}
				got := detectionsByKey(faulty)
				if len(got) != len(cleanDets)-1 {
					t.Fatalf("workers=%d: %d detections, want %d", workers, len(got), len(cleanDets)-1)
				}
				for key, det := range got {
					if !reflect.DeepEqual(det, cleanDets[key]) {
						t.Fatalf("workers=%d: detection %s differs from the clean run", workers, key)
					}
				}
				if faulty.TotalFits != clean.TotalFits-cleanDets[tc.victim].Result.Fits {
					t.Fatalf("workers=%d: TotalFits = %d, want the clean %d less the victim's %d", workers,
						faulty.TotalFits, clean.TotalFits, cleanDets[tc.victim].Result.Fits)
				}
			}
		})
	}
}
