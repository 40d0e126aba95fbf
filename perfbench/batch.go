package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"mictrend/internal/changepoint"
	"mictrend/internal/medmodel"
	"mictrend/internal/mic"
	"mictrend/internal/micgen"
	"mictrend/internal/obs"
	"mictrend/internal/ssm"
	"mictrend/internal/trend"
)

// batchSpec describes one batch workload: the corpus to generate and the
// trendscan configuration to run over it.
type batchSpec struct {
	name      string
	months    int
	records   int                    // micgen RecordsPerMonth
	catalog   func() *micgen.Catalog // fixed across seeds: the seed draws only the records
	opts      trend.Options
	hierarchy bool // also run trend.Surveil over the catalog hierarchy
	// repSeconds is the nominal length of one measured repetition: a run
	// makes --seconds/repSeconds of them (at least one), a count that does
	// not depend on the machine's speed.
	repSeconds float64
	// perRep gives every repetition a corpus of its own, drawn from the
	// seed, so a run's median spans as many corpora as repetitions. Without
	// it all repetitions read one corpus, which is set up setupReps times.
	perRep    bool
	setupReps int
}

// reps is the number of measured repetitions for a run of the given length.
func (s batchSpec) reps(budget time.Duration) int {
	return max(1, int(math.Round(budget.Seconds()/s.repSeconds)))
}

// scanSpec is batch-scan: the trendscan -hierarchy path on corpora whose
// surviving series make the exact seasonal scans nearly all of the work: the
// first five scenario diseases, steady or seasonal ones whose 15 series cost
// about the same to scan whatever records the seed draws.
func scanSpec(cfg runConfig) batchSpec {
	opts := trend.DefaultOptions() // exact prefix scan, seasonal, the paper's filters
	opts.Workers = cfg.Workers
	spec := batchSpec{
		name: "batch-scan", months: 43, records: 1000,
		catalog: func() *micgen.Catalog {
			return scenarioSubset(43, micgen.DiseaseHypertension, micgen.DiseaseArthritis, micgen.DiseaseHayFever,
				micgen.DiseaseHeatstroke, micgen.DiseaseInfluenza)
		},
		opts:       opts,
		hierarchy:  true,
		repSeconds: 2,
		perRep:     true,
	}
	if cfg.Tiny {
		spec.months, spec.records = 30, 200
		spec.catalog = func() *micgen.Catalog {
			return scenarioSubset(30, micgen.DiseaseHypertension, micgen.DiseaseArthritis, micgen.DiseaseHayFever)
		}
	}
	return spec
}

// recordsSpec is batch-records: the same pipeline without the hierarchy on
// about 0.5M records of the scenario catalog, with trendscan's default binary
// non-seasonal scan, so decode, filter, EM and reproduce dominate.
func recordsSpec(cfg runConfig) batchSpec {
	opts := trend.DefaultOptions()
	opts.Method = trend.MethodBinary
	opts.Seasonal = false
	opts.Workers = cfg.Workers
	spec := batchSpec{
		name: "batch-records", months: 43, records: 18600,
		catalog:    func() *micgen.Catalog { return micgen.NewCatalog(43, 0, 0, nil) },
		opts:       opts,
		repSeconds: 3.3,
		setupReps:  3,
	}
	if cfg.Tiny {
		spec.months, spec.records, spec.setupReps = 16, 600, 1
		spec.catalog = func() *micgen.Catalog { return micgen.NewCatalog(16, 0, 0, nil) }
	}
	return spec
}

func runBatchScan(cfg runConfig) (*report, error)    { return runBatch(cfg, scanSpec(cfg)) }
func runBatchRecords(cfg runConfig) (*report, error) { return runBatch(cfg, recordsSpec(cfg)) }

// scenarioSubset is the paper's scenario catalog cut down to the given
// diseases and the medicines indicated for them.
func scenarioSubset(months int, diseases ...string) *micgen.Catalog {
	full := micgen.NewCatalog(months, 0, 0, nil)
	out := &micgen.Catalog{Cities: full.Cities, ClassGroups: full.ClassGroups}
	keep := make(map[string]bool, len(diseases))
	for _, code := range diseases {
		keep[code] = true
	}
	for _, d := range full.Diseases {
		if keep[d.Code] {
			out.Diseases = append(out.Diseases, d)
		}
	}
	kept := make(map[string]bool)
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
		out.Medicines = append(out.Medicines, m)
	}
	return out
}

// genConfig is the generator configuration of corpus j of the run's seed.
func (s batchSpec) genConfig(seed uint64, j int) micgen.Config {
	return micgen.Config{Seed: seed<<8 | uint64(j), Months: s.months, RecordsPerMonth: s.records, Catalog: s.catalog()}
}

// hierarchy is the catalog's code-level hierarchy, the -hierarchy-file a
// real corpus would supply.
type hierarchy struct {
	medicineClass, classGroup, diseaseGroup map[string]string
}

func (s batchSpec) hierarchyCodes() hierarchy {
	c := s.catalog()
	return hierarchy{c.MedicineClasses(), c.ClassGroups, c.DiseaseGroups()}
}

func (h hierarchy) forDataset(ds *mic.Dataset) trend.Hierarchy {
	return trend.HierarchyFromCodes(ds, h.medicineClass, h.classGroup, h.diseaseGroup)
}

// writeCorpus generates the seed's corpus and writes it as a columnar file.
func writeCorpus(path string, gen micgen.Config) error {
	ds, _, err := micgen.Generate(gen)
	if err != nil {
		return err
	}
	_, err = mic.WriteDatasetFile(path, mic.FormatColumnar, ds, mic.StorageOptions{})
	return err
}

// batchOut is one pass over the corpus: the analysis, the surveillance tree
// and the rendered report.
type batchOut struct {
	ds        *mic.Dataset
	analysis  *trend.Analysis
	surv      *trend.Surveillance
	report    []byte
	attempted int // months and series
	failures  int // failed months and series
}

// seriesFailures counts the failures of series that were scanned or
// rejected before scanning.
func seriesFailures(fs []trend.Failure) int {
	n := 0
	for _, f := range fs {
		if f.Stage == trend.StageValidate || f.Stage == trend.StageDetect {
			n++
		}
	}
	return n
}

// digest condenses a pass's output for the equality checks.
type digest struct {
	Hash       string
	TotalFits  int
	Series     int
	Detected   int
	Failures   int
	DrillFits  int
	Aggregates int
}

func (o *batchOut) digest() (digest, error) {
	a := o.analysis
	h := sha256.New()
	d := digest{TotalFits: a.TotalFits, Failures: o.failures}
	for _, group := range [][]trend.Detection{a.Diseases, a.Medicines, a.Prescriptions} {
		for _, det := range group {
			d.Series++
			if det.Result.Detected() {
				d.Detected++
			}
			r := det.Result
			fmt.Fprintf(h, "%d/%d/%d cp=%d aic=%x nc=%x fits=%d:", det.Kind, det.Disease, det.Medicine,
				r.ChangePoint, math.Float64bits(r.AIC), math.Float64bits(r.NoChangeAIC), r.Fits)
			for _, v := range det.Series {
				fmt.Fprintf(h, "%x,", math.Float64bits(v))
			}
		}
	}
	fmt.Fprintf(h, "total=%d failures=%d\n", a.TotalFits, o.failures)
	if o.surv != nil {
		raw, err := json.Marshal(o.surv)
		if err != nil {
			return digest{}, err
		}
		h.Write(raw)
		d.DrillFits, d.Aggregates = o.surv.DrillFits, len(o.surv.Nodes)
	}
	h.Write(o.report)
	d.Hash = hex.EncodeToString(h.Sum(nil))[:16]
	return d, nil
}

// analyzeOnce is the untraced measured phase, trendscan's own path: decode
// the corpus file, trend.Analyze, trend.Surveil reusing the analysis, and
// render the report.
func analyzeOnce(ctx context.Context, path string, spec batchSpec, h hierarchy) (*batchOut, error) {
	ds, _, _, err := mic.ReadDatasetFile(path, mic.FormatAuto, mic.StorageOptions{})
	if err != nil {
		return nil, err
	}
	opts := spec.opts
	opts.Metrics = obs.NewRegistry() // trendscan always collects its metrics
	a, err := trend.Analyze(ctx, ds, opts)
	if err != nil {
		return nil, err
	}
	out := &batchOut{
		ds: ds, analysis: a, failures: len(a.Failures),
		attempted: ds.T() + len(a.Diseases) + len(a.Medicines) + len(a.Prescriptions) + seriesFailures(a.Failures),
	}
	if spec.hierarchy {
		if out.surv, err = surveil(ctx, ds, h, opts, a); err != nil {
			return nil, err
		}
		out.failures += len(out.surv.Failures)
	}
	var buf bytes.Buffer
	if err := renderReport(&buf, ds, a, out.surv); err != nil {
		return nil, err
	}
	out.report = buf.Bytes()
	return out, nil
}

// surveil runs trend.Surveil reusing the analysis, as trendscan -hierarchy
// does; a degraded tree still counts, its failures are in surv.Failures.
func surveil(ctx context.Context, ds *mic.Dataset, h hierarchy, opts trend.Options, a *trend.Analysis) (*trend.Surveillance, error) {
	surv, err := trend.Surveil(ctx, ds, trend.SurveilOptions{Hierarchy: h.forDataset(ds), Pipeline: opts, Analysis: a})
	if surv == nil {
		return nil, fmt.Errorf("surveillance: %w", err)
	}
	return surv, nil
}

// renderReport writes trendscan's report: the strongest changes per series
// kind with their causes, the fit total, and the surveillance tree.
func renderReport(w io.Writer, ds *mic.Dataset, a *trend.Analysis, surv *trend.Surveillance) error {
	causes := trend.ClassifyChanges(a, 2)
	kinds := []struct {
		name string
		dets []trend.Detection
	}{{"disease", a.Diseases}, {"medicine", a.Medicines}, {"prescription", a.Prescriptions}}
	for _, k := range kinds {
		detected := trend.DetectedChangePoints(k.dets)
		fmt.Fprintf(w, "%s series: %d analyzed, %d with change points\n", k.name, len(k.dets), len(detected))
		for _, d := range detected[:min(20, len(detected))] {
			var what string
			switch d.Kind {
			case trend.KindDisease:
				what = ds.Diseases.Code(int32(d.Disease))
			case trend.KindMedicine:
				what = ds.Medicines.Code(int32(d.Medicine))
			default:
				what = fmt.Sprintf("%s ← %s [%s]", ds.Medicines.Code(int32(d.Medicine)), ds.Diseases.Code(int32(d.Disease)),
					causes[mic.Pair{Disease: d.Disease, Medicine: d.Medicine}])
			}
			fmt.Fprintf(w, "  month %2d (ΔAIC %6.2f)  %s\n", d.Result.ChangePoint, d.Result.NoChangeAIC-d.Result.AIC, what)
		}
	}
	fmt.Fprintf(w, "total model fits: %d\n", a.TotalFits)
	if surv != nil {
		return surv.WriteReport(w, ds)
	}
	return nil
}

// runBatch drives a batch workload: repeated set-ups, the repeated untraced
// measured phase, then one pass rebuilt from the layers' own public calls,
// which both checks the analysis and, on traced runs, gives the per-layer
// numbers.
func runBatch(cfg runConfig, spec batchSpec) (*report, error) {
	ctx := context.Background()
	reps := spec.reps(cfg.Budget)
	corpora, setupReps := 1, spec.setupReps
	if spec.perRep {
		corpora, setupReps = reps, reps
	}
	paths := make([]string, corpora)
	var setups []float64
	for i := 0; i < setupReps; i++ {
		j := i % corpora
		paths[j] = filepath.Join(cfg.WorkDir, fmt.Sprintf("corpus-%d.micc", j))
		t0 := time.Now()
		if err := writeCorpus(paths[j], spec.genConfig(cfg.Seed, j)); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC() // set-up garbage is not the measured phase's to collect
	}
	h := spec.hierarchyCodes()

	rep := &report{}
	var walls, allocs, peaks, walls0 []float64
	digests := make([]digest, corpora)
	for i := 0; i < reps; i++ {
		j := i % corpora
		mark, err := markMemory()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		out, err := analyzeOnce(ctx, paths[j], spec, h)
		wall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		alloc, peak, err := mark.since()
		if err != nil {
			return nil, err
		}
		walls, allocs, peaks = append(walls, wall.Seconds()), append(allocs, alloc), append(peaks, peak)
		if j == 0 {
			walls0 = append(walls0, wall.Seconds())
		}
		rep.Attempted += out.attempted
		rep.Failed += out.failures
		got, err := out.digest()
		if err != nil {
			return nil, err
		}
		if i < corpora {
			digests[j] = got
		} else if got != digests[j] {
			return rep, checkf("repetition %d differs from repetition %d on the same corpus: %+v vs %+v", i, j, got, digests[j])
		}
		if spec.hierarchy && got.DrillFits != 0 {
			return rep, checkf("surveillance reusing the analysis spent %d drill-down fits, want 0", got.DrillFits)
		}
	}
	logSamples("setup_s", setups)
	logSamples("wall_s", walls)
	logSamples("alloc_mib", allocs)
	// Repetitions of one corpus differ only by the machine's noise: their
	// median. Repetitions over different corpora differ by the corpora's
	// scan cost too: their mean, the cost per corpus of the run's set.
	center := median
	if spec.perRep {
		center = mean
	}
	rep.E2E = map[string]float64{
		"setup_s":      median(setups),
		"wall_s":       center(walls),
		"alloc_mib":    center(allocs),
		"peak_rss_mib": median(peaks),
	}
	want := digests[0]

	var tracer *obs.Tracer
	if cfg.Trace {
		tracer = obs.NewTracer()
	}
	if _, err := markMemory(); err != nil { // start like the measured repetitions
		return rep, err
	}
	lp, err := layeredPass(ctx, paths[0], spec, h, tracer)
	if err != nil {
		return rep, err
	}
	rep.Attempted += lp.out.attempted
	rep.Failed += lp.out.failures
	got, err := lp.out.digest()
	if err != nil {
		return rep, err
	}
	if got != want {
		return rep, checkf("the pass rebuilt from layer calls differs from trend.Analyze: %+v vs %+v", got, want)
	}
	if !cfg.Trace {
		return rep, nil
	}
	rep.Layers = lp.metrics(median(walls0))
	rep.Layers["failed_frac"] = float64(rep.Failed) / float64(rep.Attempted)
	rep.TracePath, err = writeTrace(cfg, spec.name, tracer)
	return rep, err
}

// layeredOut is the layered pass: its output plus each layer's time and the
// program's own counters.
type layeredOut struct {
	out                                            *batchOut
	wall                                           time.Duration
	decode, filter, em, reproduce, detect, surveil time.Duration
	series                                         int
	stats                                          *ssm.FitStats
	reg                                            *obs.Registry
}

// layeredPass rebuilds trend.Analyze (and trend.Surveil) from the layers'
// public calls — mic decode and filter, medmodel EM and reproduce, one
// changepoint.Detect per series on a pool of Workers goroutines in job order
// — timing each call. The program's own spans and counters are collected
// through the hooks it already has: FitAll's Metrics and Trace, Detect's
// Stats and Trace, and Surveil's pipeline options.
func layeredPass(ctx context.Context, path string, spec batchSpec, h hierarchy, tracer *obs.Tracer) (*layeredOut, error) {
	lc := layerClock{tracer: tracer}
	var sink obs.SpanObserver
	if tracer != nil {
		sink = tracer.Observe
	}
	opts := spec.opts
	lp := &layeredOut{stats: &ssm.FitStats{}, reg: obs.NewRegistry()}
	t0 := time.Now()

	var ds *mic.Dataset
	var err error
	if lp.decode, err = lc.time("mic/decode", func() (err error) {
		ds, _, _, err = mic.ReadDatasetFile(path, mic.FormatAuto, mic.StorageOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	var filtered *mic.Dataset
	lp.filter, _ = lc.time("mic/filter", func() error {
		filtered = mic.FilterDataset(ds, mic.FilterOptions{MinMonthlyFreq: opts.MinMonthlyFreq})
		return nil
	})
	var models []*medmodel.Model
	var monthFails []medmodel.MonthError
	if lp.em, err = lc.time("medmodel/em", func() (err error) {
		em := opts.EM
		em.Workers, em.Metrics, em.Trace = opts.Workers, lp.reg, sink
		models, monthFails, err = medmodel.FitAll(ctx, filtered, em)
		return err
	}); err != nil {
		return nil, err
	}
	for _, mf := range monthFails {
		models[mf.Month] = medmodel.FallbackModel(filtered.Months[mf.Month], filtered.Medicines.Len())
	}
	var series *medmodel.SeriesSet
	if lp.reproduce, err = lc.time("medmodel/reproduce", func() (err error) {
		series, err = medmodel.ReproduceParallel(filtered, models, opts.Workers)
		if err == nil {
			series = series.FilterMinTotal(opts.MinSeriesTotal)
		}
		return err
	}); err != nil {
		return nil, err
	}
	a := &trend.Analysis{Models: models, Series: series}
	failures := len(monthFails)
	lp.detect, _ = lc.time("changepoint/detect", func() error {
		var dets []trend.Detection
		var failed int
		dets, failed, lp.series = detectSeries(ctx, series, opts, lp.stats, lc, sink)
		failures += failed
		for _, det := range dets {
			a.TotalFits += det.Result.Fits
			switch det.Kind {
			case trend.KindDisease:
				a.Diseases = append(a.Diseases, det)
			case trend.KindMedicine:
				a.Medicines = append(a.Medicines, det)
			default:
				a.Prescriptions = append(a.Prescriptions, det)
			}
		}
		return nil
	})
	lp.out = &batchOut{ds: ds, analysis: a, failures: failures, attempted: ds.T() + lp.series}
	if spec.hierarchy {
		sopts := opts
		sopts.Metrics, sopts.Trace = lp.reg, sink
		if lp.surveil, err = lc.time("trend/surveil", func() (err error) {
			lp.out.surv, err = surveil(ctx, ds, h, sopts, a)
			return err
		}); err != nil {
			return nil, err
		}
		lp.out.failures += len(lp.out.surv.Failures)
	}
	var buf bytes.Buffer
	if _, err := lc.time("report", func() error { return renderReport(&buf, ds, a, lp.out.surv) }); err != nil {
		return nil, err
	}
	lp.out.report = buf.Bytes()
	lp.wall = time.Since(t0)
	return lp, nil
}

// detectSeries scans every reproduced series in trend's job order — diseases,
// medicines, then prescriptions, each by id — on a pool of opts.Workers
// goroutines, one changepoint.Detect per series. It returns the detections
// in job order, the number of series that failed, and the number scanned.
func detectSeries(ctx context.Context, series *medmodel.SeriesSet, opts trend.Options, stats *ssm.FitStats, lc layerClock, sink obs.SpanObserver) ([]trend.Detection, int, int) {
	jobs := collectJobs(series)
	method := changepoint.SearchExactPrefix
	if opts.Method == trend.MethodBinary {
		method = changepoint.SearchBinary
	}
	done := make([]bool, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(lane int64) {
			defer wg.Done()
			for i := range next {
				job := &jobs[i]
				if !finite(job.Series) {
					continue // trend rejects the series before detection
				}
				_, err := lc.timeOn(lane, "changepoint/detect/series", job.Key().String(), func() (err error) {
					job.Result, err = changepoint.Detect(ctx, job.Series, changepoint.DetectOptions{
						Method: method, Seasonal: opts.Seasonal, Workers: 1, Stats: stats, Trace: sink,
					})
					return err
				})
				done[i] = err == nil
			}
		}(laneBench + 1 + int64(w))
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	out := jobs[:0]
	for i, ok := range done {
		if ok {
			out = append(out, jobs[i])
		}
	}
	return out, len(jobs) - len(out), len(jobs)
}

// collectJobs lists the series to scan in trend's job order.
func collectJobs(series *medmodel.SeriesSet) []trend.Detection {
	var jobs []trend.Detection
	diseases := series.Diseases()
	sort.Slice(diseases, func(a, b int) bool { return diseases[a] < diseases[b] })
	for _, d := range diseases {
		jobs = append(jobs, trend.Detection{Kind: trend.KindDisease, Disease: d, Series: series.Disease(d)})
	}
	meds := series.Medicines()
	sort.Slice(meds, func(a, b int) bool { return meds[a] < meds[b] })
	for _, m := range meds {
		jobs = append(jobs, trend.Detection{Kind: trend.KindMedicine, Medicine: m, Series: series.Medicine(m)})
	}
	pairs := make([]mic.Pair, 0, len(series.Pairs))
	for p := range series.Pairs {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].Disease != pairs[b].Disease {
			return pairs[a].Disease < pairs[b].Disease
		}
		return pairs[a].Medicine < pairs[b].Medicine
	})
	for _, p := range pairs {
		jobs = append(jobs, trend.Detection{Kind: trend.KindPrescription, Disease: p.Disease, Medicine: p.Medicine, Series: series.Pair(p)})
	}
	return jobs
}

func finite(y []float64) bool {
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// metrics turns the layered pass into the per-layer metrics; untraced is the
// median untraced wall time on the same corpus.
func (lp *layeredOut) metrics(untraced float64) map[string]float64 {
	fits := lp.out.analysis.TotalFits
	lik := lp.stats.LikEvals.Load()
	m := map[string]float64{
		"mic.decode_s":                lp.decode.Seconds(),
		"mic.filter_s":                lp.filter.Seconds(),
		"medmodel.em_s":               lp.em.Seconds(),
		"medmodel.em_iterations":      float64(lp.reg.Counter("em/iterations").Value()),
		"medmodel.reproduce_s":        lp.reproduce.Seconds(),
		"changepoint.detect_s":        lp.detect.Seconds(),
		"changepoint.series":          float64(lp.series),
		"changepoint.fits_per_series": float64(fits) / float64(max(lp.series, 1)),
		"changepoint.prefix_resumes":  float64(lp.stats.PrefixResumes.Load()),
		"ssm.lik_evals":               float64(lik),
		"ssm.restarts":                float64(lp.stats.Restarts.Load()),
		"kalman.steady_share":         float64(lp.stats.SteadyHits.Load()) / float64(max(lik, 1)),
		"trend.surveil_s":             lp.surveil.Seconds(),
		"trend.surveil_fits":          float64(lp.reg.Counter("surveil/total_fits").Value()),
	}
	layers := lp.decode + lp.filter + lp.em + lp.reproduce + lp.detect + lp.surveil
	m["trace.coverage"] = layers.Seconds() / lp.wall.Seconds()
	m["trace.overhead"] = lp.wall.Seconds() / untraced
	return m
}

// writeTrace writes the traced pass's spans as a Chrome Trace.
func writeTrace(cfg runConfig, workload string, tracer *obs.Tracer) (string, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.OutDir, fmt.Sprintf("%s-seed%d.trace.json", workload, cfg.Seed))
	var buf bytes.Buffer
	if err := tracer.WriteTrace(&buf); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}
