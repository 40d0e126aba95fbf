package trend

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mictrend/internal/changepoint"
	"mictrend/internal/mic"
	"mictrend/internal/micgen"
)

// The output oracle pins what the pipeline concludes on fixed corpora, so a
// change that moves arithmetic bits on purpose shows whether any conclusion
// moved with them. testdata/oracle.txt holds one line per series and per
// surveillance node: the change point and detected flag, compared exactly,
// and the AIC and a summary of the series (its total and its largest
// month), compared within relative bounds. A line's run reads
// corpus/seed/months/method, with /surveil after it for a surveillance node.
// Rewrite the file with
//
//	go test -run '^TestOutputOracle$' ./internal/trend/ -update
//
// and quote the summary the test logs wherever the rewrite is recorded.

var updateOracle = flag.Bool("update", false, "rewrite testdata/oracle.txt from this run")

const (
	oraclePath = "testdata/oracle.txt"
	// oracleAICRel and oracleSeriesRel bound the relative difference of an
	// AIC and of a series summary from the committed value.
	oracleAICRel    = 1e-6
	oracleSeriesRel = 1e-9
)

// oracleScenario lists the scenario diseases the scan and serving corpora
// keep, in the order the benchmark workloads name them: the scan corpora
// keep the first five, the serving corpora all eleven.
var oracleScenario = []string{
	micgen.DiseaseHypertension, micgen.DiseaseArthritis, micgen.DiseaseHayFever,
	micgen.DiseaseHeatstroke, micgen.DiseaseInfluenza, micgen.DiseaseAsthma, micgen.DiseaseBronchitis,
	micgen.DiseaseCOPD, micgen.DiseaseLewyBody, micgen.DiseaseParkinson, micgen.DiseaseOsteoporosis,
}

// scenarioCatalog is the scenario catalog cut down to the given diseases
// and the medicines indicated for them (a generic only with its original).
func scenarioCatalog(months int, diseases []string) *micgen.Catalog {
	full := micgen.NewCatalog(months, 0, 0, nil)
	out := &micgen.Catalog{Cities: full.Cities, ClassGroups: full.ClassGroups}
	for _, d := range full.Diseases {
		if slices.Contains(diseases, d.Code) {
			out.Diseases = append(out.Diseases, d)
		}
	}
	kept := make(map[string]bool)
	for _, m := range full.Medicines {
		var inds []micgen.Indication
		for _, ind := range m.Indications {
			if slices.Contains(diseases, ind.Disease) {
				inds = append(inds, ind)
			}
		}
		if len(inds) == 0 || (m.GenericOf != "" && !kept[m.GenericOf]) {
			continue
		}
		m.Indications = inds
		kept[m.Code] = true
		out.Medicines = append(out.Medicines, m)
	}
	return out
}

// oracleCorpus is one generated corpus and the prefixes of it to analyse.
type oracleCorpus struct {
	name     string
	catalog  *micgen.Catalog
	records  int
	seed     uint64
	seasonal bool
	prefixes []int // months analysed, each a cold run of its own
}

// oracleCorpora are the corpora of the benchmark workloads' shapes, seeds 1
// to 3: the scan corpus (43 months of 1,000 records, five scenario
// diseases, scanned with the seasonal model), the records corpus (43
// months of 18,600 records, the whole catalog) and the serving corpus (43
// months of 1,000 records, eleven scenario diseases), the last analysed at
// every prefix a serving fold publishes.
func oracleCorpora() []oracleCorpus {
	const months = 43
	var out []oracleCorpus
	every := make([]int, 0, months)
	for n := 1; n <= months; n++ {
		every = append(every, n)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		out = append(out,
			oracleCorpus{name: "scan", catalog: scenarioCatalog(months, oracleScenario[:5]), records: 1000, seed: seed, seasonal: true, prefixes: []int{months}},
			oracleCorpus{name: "records", catalog: micgen.NewCatalog(months, 0, 0, nil), records: 18600, seed: seed, prefixes: []int{months}},
			oracleCorpus{name: "serve", catalog: scenarioCatalog(months, oracleScenario), records: 1000, seed: seed, prefixes: every},
		)
	}
	return out
}

// oracleLines runs the oracle's analyses over one corpus and returns its
// lines: a cold Analyze with the binary and with the exact scan, and
// Surveil over each, at every prefix of the corpus.
func oracleLines(t *testing.T, c oracleCorpus) []string {
	t.Helper()
	ds, _, err := micgen.Generate(micgen.Config{Seed: c.seed, Months: slices.Max(c.prefixes), RecordsPerMonth: c.records, Catalog: c.catalog})
	if err != nil {
		t.Fatal(err)
	}
	h := HierarchyFromCodes(ds, c.catalog.MedicineClasses(), c.catalog.ClassGroups, c.catalog.DiseaseGroups())
	var lines []string
	for _, n := range c.prefixes {
		sub := &mic.Dataset{Diseases: ds.Diseases, Medicines: ds.Medicines, Hospitals: ds.Hospitals, Months: ds.Months[:n]}
		for _, method := range []Method{MethodBinary, MethodExact} {
			opts := DefaultOptions()
			opts.Method = method
			opts.Seasonal = c.seasonal
			run := fmt.Sprintf("%s/%d/%d/%s", c.name, c.seed, n, method)
			a, err := Analyze(context.Background(), sub, opts)
			if err != nil {
				t.Fatalf("%s: %v", run, err)
			}
			for _, dets := range [][]Detection{a.Diseases, a.Medicines, a.Prescriptions} {
				for _, det := range dets {
					lines = append(lines, oracleLine(run, det.Key(), det.Result, det.Series))
				}
			}
			surv, err := Surveil(context.Background(), sub, SurveilOptions{Hierarchy: h, Pipeline: opts, Analysis: a})
			if err != nil {
				t.Fatalf("%s: surveil: %v", run, err)
			}
			for _, node := range surv.Nodes {
				lines = append(lines, oracleLine(run+"/surveil", node.Key, node.Result, node.Series))
			}
		}
	}
	return lines
}

// oracleLine renders one series: run, key, change point, detected flag,
// AIC, series total and largest month, floats in the shortest form that
// reads back to the same bits.
func oracleLine(run string, key SeriesKey, r changepoint.Result, series []float64) string {
	var total, peak float64
	for _, v := range series {
		total += v
		peak = max(peak, v)
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return strings.Join([]string{run, key.String(), strconv.Itoa(r.ChangePoint), strconv.FormatBool(r.Detected()), g(r.AIC), g(total), g(peak)}, " ")
}

// oracleDiff compares this run's lines with the committed ones and returns
// the summary to quote, failing the test on a missing or extra series, a
// moved change point or detected flag, or a value outside its bound.
func oracleDiff(t *testing.T, got, want []string) string {
	t.Helper()
	split := func(lines []string) map[string][]string {
		out := make(map[string][]string, len(lines))
		for _, l := range lines {
			f := strings.Fields(l)
			if len(f) != 7 {
				t.Fatalf("malformed oracle line %q", l)
			}
			out[f[0]+" "+f[1]] = f[2:]
		}
		return out
	}
	g, w := split(got), split(want)
	same, moved, worstAIC, worstSeries := 0, 0, 0.0, 0.0
	for key, wf := range w {
		gf, ok := g[key]
		if !ok {
			t.Errorf("oracle: %s missing", key)
			continue
		}
		if slices.Equal(gf, wf) {
			same++
			continue
		}
		if gf[0] != wf[0] || gf[1] != wf[1] {
			moved++
			t.Errorf("oracle: %s change point %s (detected %s), want %s (detected %s)", key, gf[0], gf[1], wf[0], wf[1])
		}
		rel := func(i int) float64 {
			a, _ := strconv.ParseFloat(gf[i], 64)
			b, _ := strconv.ParseFloat(wf[i], 64)
			if a == b {
				return 0
			}
			return math.Abs(a-b) / max(math.Abs(a), math.Abs(b))
		}
		aic := rel(2)
		ser := max(rel(3), rel(4))
		worstAIC, worstSeries = max(worstAIC, aic), max(worstSeries, ser)
		if !(aic <= oracleAICRel) {
			t.Errorf("oracle: %s AIC %s, want %s (relative difference %.3g > %g)", key, gf[2], wf[2], aic, oracleAICRel)
		}
		if !(ser <= oracleSeriesRel) {
			t.Errorf("oracle: %s series total/peak %s/%s, want %s/%s (relative difference %.3g > %g)", key, gf[3], gf[4], wf[3], wf[4], ser, oracleSeriesRel)
		}
	}
	for key := range g {
		if _, ok := w[key]; !ok {
			t.Errorf("oracle: %s not in %s", key, oraclePath)
		}
	}
	return fmt.Sprintf("%d series compared, %d bit-identical, worst AIC relative difference %.3g, worst series relative difference %.3g, %d change points moved",
		len(w), same, worstAIC, worstSeries, moved)
}

// TestOutputOracle compares the pipeline's conclusions on the oracle
// corpora with testdata/oracle.txt, or rewrites the file under -update.
func TestOutputOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("output oracle: about a minute of analyses")
	}
	if raceEnabled {
		t.Skip("output oracle: too slow under the race detector; CI runs it in a step of its own")
	}
	var lines []string
	for _, c := range oracleCorpora() {
		lines = append(lines, oracleLines(t, c)...)
	}
	slices.Sort(lines)
	var buf bytes.Buffer
	for _, l := range lines {
		buf.WriteString(l)
		buf.WriteByte('\n')
	}
	if *updateOracle {
		if err := os.MkdirAll(filepath.Dir(oraclePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(oraclePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("oracle: wrote %d lines to %s", len(lines), oraclePath)
		return
	}
	f, err := os.Open(oraclePath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Log("oracle: " + oracleDiff(t, lines, want))
}
