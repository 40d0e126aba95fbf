package trend

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"mictrend/internal/faultpoint"
	"mictrend/internal/mic"
	"mictrend/internal/micgen"
	"mictrend/internal/obs"
)

// surveilEnv generates the standard scenario corpus and resolves the
// catalog's ground-truth hierarchy against its vocabularies.
func surveilEnv(t *testing.T) (*mic.Dataset, *micgen.Truth, Hierarchy) {
	t.Helper()
	ds, truth, err := micgen.Generate(micgen.Config{
		Seed:            42,
		Months:          30,
		RecordsPerMonth: 1200,
		BulkDiseases:    6,
		BulkMedicines:   6,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := truth.Catalog
	h := HierarchyFromCodes(ds, c.MedicineClasses(), c.ClassGroupCodes(), c.DiseaseGroups())
	return ds, truth, h
}

func surveilOpts(h Hierarchy) SurveilOptions {
	popts := DefaultOptions()
	popts.Method = MethodExact
	popts.Seasonal = false
	popts.MinSeriesTotal = 100
	return SurveilOptions{Hierarchy: h, Pipeline: popts}
}

func medKey(t *testing.T, ds *mic.Dataset, code string) SeriesKey {
	t.Helper()
	id, ok := ds.Medicines.Lookup(code)
	if !ok {
		t.Fatalf("medicine %s missing from vocabulary", code)
	}
	return SeriesKey{Kind: KindMedicine, Medicine: mic.MedicineID(id)}
}

func disKey(t *testing.T, ds *mic.Dataset, code string) SeriesKey {
	t.Helper()
	id, ok := ds.Diseases.Lookup(code)
	if !ok {
		t.Fatalf("disease %s missing from vocabulary", code)
	}
	return SeriesKey{Kind: KindDisease, Disease: mic.DiseaseID(id)}
}

// TestSurveilDetectsPlantedAggregateEvents is the tentpole acceptance test:
// hierarchical surveillance must recall ≥ 90% of the generator's planted
// aggregate-level events, and attribute single-driver events to the right
// member medicine at top-1.
func TestSurveilDetectsPlantedAggregateEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	ds, truth, h := surveilEnv(t)
	surv, err := Surveil(context.Background(), ds, surveilOpts(h))
	if err != nil {
		t.Fatal(err)
	}
	// On this small corpus (1200 records/month) the estimation noise floor
	// sits near a 15% relative shift, so the truth filter asks for 20%.
	events := truth.AggregateEvents(0, -1, 0.2)
	if len(events) == 0 {
		t.Fatal("generator planted no visible aggregate events")
	}
	near := func(cp, month int) bool { return cp >= month-4 && cp <= month+4 }
	hits := 0
	for _, ev := range events {
		node := surv.Node(SeriesKey{Kind: KindMedicineClass, Node: ev.Class})
		if node == nil {
			t.Errorf("class %s has no surveillance node", ev.Class)
			continue
		}
		// An event counts as detected when the class is flagged and the
		// event's month surfaces either as the aggregate break itself or as
		// a member change point in the drill-down attribution (a class with
		// two planted events reports the stronger one at aggregate level;
		// the drill-down recovers the other).
		hit := false
		if node.Result.Detected() {
			hit = near(node.Result.ChangePoint, ev.Month)
			for _, a := range node.Attribution {
				hit = hit || (a.ChildChangePoint >= 0 && near(a.ChildChangePoint, ev.Month))
			}
		}
		if hit {
			hits++
		} else {
			t.Logf("missed aggregate event: class %s month %d drivers %v (cp=%d)", ev.Class, ev.Month, ev.Drivers, node.Result.ChangePoint)
		}
	}
	if hits*10 < len(events)*9 {
		t.Fatalf("aggregate recall %d/%d, want ≥ 90%%", hits, len(events))
	}

	// Single-driver events whose month the aggregate break itself matched
	// must attribute to the driver at top-1.
	for _, ev := range events {
		if len(ev.Drivers) != 1 {
			continue
		}
		node := surv.Node(SeriesKey{Kind: KindMedicineClass, Node: ev.Class})
		if node == nil || !node.Result.Detected() || !near(node.Result.ChangePoint, ev.Month) {
			continue
		}
		if len(node.Attribution) == 0 {
			t.Errorf("class %s detected but has no attribution", ev.Class)
			continue
		}
		want := medKey(t, ds, ev.Drivers[0])
		if got := node.Attribution[0].Child; got != want {
			t.Errorf("class %s top-1 attribution = %s, want %s (%s)", ev.Class, got, want, ev.Drivers[0])
		}
	}

	// Shares of a detected node's full attribution are coherent: the top
	// entry dominates and every entry carries the break-relative delta.
	for _, node := range surv.Detected() {
		if len(node.Attribution) == 0 {
			t.Fatalf("detected node %s has no attribution", node.Key)
		}
		for i := 1; i < len(node.Attribution); i++ {
			a, b := node.Attribution[i-1], node.Attribution[i]
			if absf(a.Delta) < absf(b.Delta) {
				t.Fatalf("node %s attribution not ranked: |%f| < |%f|", node.Key, a.Delta, b.Delta)
			}
		}
	}
}

// TestSurveilFlagsPlantedOffsetPair pins the offsetting-substitution
// detector on the generator's planted pair: the original anti-platelet's
// post-generic decline must be flagged inside class B01 with a generic as
// the absorbing riser — an event invisible at the aggregate level.
func TestSurveilFlagsPlantedOffsetPair(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	ds, truth, h := surveilEnv(t)
	surv, err := Surveil(context.Background(), ds, surveilOpts(h))
	if err != nil {
		t.Fatal(err)
	}
	otruth := truth.OffsetPairs()
	var planted *micgen.OffsetTruth
	for i := range otruth {
		if otruth[i].Class == micgen.ClassAntiplatelet && otruth[i].Decliner == micgen.MedicineAntiplOrig {
			planted = &otruth[i]
		}
	}
	if planted == nil {
		t.Fatal("generator lost the planted substitution pair")
	}
	nodeKey := SeriesKey{Kind: KindMedicineClass, Node: micgen.ClassAntiplatelet}
	declinerKey := medKey(t, ds, micgen.MedicineAntiplOrig)
	var found *OffsetPair
	for i := range surv.Offsets {
		if surv.Offsets[i].Node == nodeKey && surv.Offsets[i].Decliner == declinerKey {
			found = &surv.Offsets[i]
		}
	}
	if found == nil {
		t.Fatalf("planted offset pair not flagged; offsets = %+v", surv.Offsets)
	}
	risers := map[SeriesKey]bool{}
	for _, code := range planted.Risers {
		risers[medKey(t, ds, code)] = true
	}
	if !risers[found.Riser] {
		t.Fatalf("offset riser = %s, want one of the planted generics", found.Riser)
	}
	if found.Month < planted.Month-2 || found.Month > planted.Month+8 {
		t.Fatalf("offset month = %d, want near release month %d", found.Month, planted.Month)
	}
	if found.DeclineDelta >= 0 || found.RiseDelta <= 0 {
		t.Fatalf("offset deltas have wrong signs: %+v", *found)
	}
	if absf(found.NetDelta) > maxf(-found.DeclineDelta, found.RiseDelta) {
		t.Fatalf("net move %f exceeds gross moves, not an offset", found.NetDelta)
	}
}

// TestSurveilFlagsDiagShiftOffset checks the disease-group level: the
// diagnostics shift moves dehydration diagnoses to oral-feeding difficulty
// within the nutrition group.
func TestSurveilFlagsDiagShiftOffset(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	ds, _, h := surveilEnv(t)
	surv, err := Surveil(context.Background(), ds, surveilOpts(h))
	if err != nil {
		t.Fatal(err)
	}
	nodeKey := SeriesKey{Kind: KindDiseaseGroup, Node: micgen.GroupNutrition}
	declinerKey := disKey(t, ds, micgen.DiseaseDehydration)
	for _, op := range surv.Offsets {
		if op.Node == nodeKey && op.Decliner == declinerKey {
			if want := disKey(t, ds, micgen.DiseaseOralFeeding); op.Riser != want {
				t.Fatalf("diag-shift riser = %s, want %s", op.Riser, want)
			}
			return
		}
	}
	t.Fatalf("diagnostics-shift offset not flagged in group %s; offsets = %+v", micgen.GroupNutrition, surv.Offsets)
}

// surveilJSON marshals the worker-independent part of a surveillance tree.
func surveilJSON(t *testing.T, s *Surveillance) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSurveilWorkersShardsInvariance is the determinism acceptance test: the
// surveillance tree must be byte-identical for every Workers/ScanWorkers
// split, and with a reused Analysis. Shards is a deprecated no-op; the
// reused Analysis runs under one nonzero value, which pins that it stays
// one.
func TestSurveilWorkersShardsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	ds, _, h := surveilEnv(t)
	base := surveilOpts(h)

	var want []byte
	for _, workers := range []int{1, 3, 7} {
		opts := base
		opts.Pipeline.Workers = workers
		opts.Pipeline.ScanWorkers = workers%2 + 1
		surv, err := Surveil(context.Background(), ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := surveilJSON(t, surv)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("surveillance differs at workers=%d", workers)
		}
	}

	// Reusing a full Analyze must yield the same tree: the leaf change
	// points it cross-links are exactly what the standalone drill-down
	// computes, so only DrillFits — the count of NEW fits the reuse saved —
	// may differ. Normalize it before comparing.
	normalize := func(s *Surveillance) []byte {
		c := *s
		c.DrillFits = 0
		return surveilJSON(t, &c)
	}
	standalone, err := Surveil(context.Background(), ds, base)
	if err != nil {
		t.Fatal(err)
	}
	opts := base
	opts.Pipeline.Shards = 3
	analysis, err := Analyze(context.Background(), ds, opts.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	opts.Analysis = analysis
	surv, err := Surveil(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalize(surv), normalize(standalone)) {
		t.Fatal("surveillance with reused analysis (shards=3) differs from standalone")
	}
}

// TestSurveilFaultInjectionDegradesOneNode: an injected aggregate-scan
// failure must degrade only its node, recorded under StageSurveil.
func TestSurveilFaultInjectionDegradesOneNode(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	ds, _, h := surveilEnv(t)
	faultpoint.Reset()
	defer faultpoint.Reset()
	victim := SeriesKey{Kind: KindMedicineClass, Node: micgen.ClassAntiplatelet}
	faultpoint.Enable("trend/surveil", faultpoint.Spec{
		Match: func(detail string) bool { return detail == victim.String() },
	})
	surv, err := Surveil(context.Background(), ds, surveilOpts(h))
	if err != nil {
		t.Fatalf("injected fault aborted Surveil: %v", err)
	}
	if len(surv.Failures) != 1 {
		t.Fatalf("failures = %+v, want exactly the injected one", surv.Failures)
	}
	f := surv.Failures[0]
	if f.Stage != StageSurveil || f.Key() != victim {
		t.Fatalf("failure = %+v, want StageSurveil on %s", f, victim)
	}
	node := surv.Node(victim)
	if node == nil || node.Result.Detected() {
		t.Fatal("failed node should keep a zero result")
	}
	healthy := 0
	for i := range surv.Nodes {
		if surv.Nodes[i].Result.Detected() {
			healthy++
		}
	}
	if healthy == 0 {
		t.Fatal("fault leaked beyond its node: nothing else detected")
	}
}

// TestSurveilObserverContract: the surveil stages emit StageStart/StageEnd
// and per-node SeriesDone events in node order, and metrics land under
// surveil/*.
func TestSurveilObserverContract(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	ds, _, h := surveilEnv(t)
	var events []obs.Event
	reg := obs.NewRegistry()
	opts := surveilOpts(h)
	opts.Pipeline.Observer = func(e obs.Event) { events = append(events, e) }
	opts.Pipeline.Metrics = reg
	surv, err := Surveil(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	var nodeOrder []string
	for i := range surv.Nodes {
		nodeOrder = append(nodeOrder, surv.Nodes[i].Key.String())
	}
	var seen []string
	started := false
	for _, e := range events {
		switch {
		case e.Kind == obs.StageStart && e.Stage == "surveil":
			started = true
			if e.Total != len(surv.Nodes) {
				t.Fatalf("surveil stage total = %d, want %d", e.Total, len(surv.Nodes))
			}
		case e.Kind == obs.SeriesDone && e.Stage == "surveil":
			seen = append(seen, e.Series)
		}
	}
	if !started {
		t.Fatal("no surveil StageStart event")
	}
	if strings.Join(seen, ",") != strings.Join(nodeOrder, ",") {
		t.Fatalf("surveil SeriesDone order = %v, want node order %v", seen, nodeOrder)
	}
	if reg.Counter("surveil/nodes").Value() != int64(len(surv.Nodes)) {
		t.Fatal("surveil/nodes counter wrong")
	}
	if reg.Counter("surveil/total_fits").Value() != int64(surv.AggregateFits+surv.DrillFits) {
		t.Fatal("surveil/total_fits counter wrong")
	}
}

// TestSurveilReportMentionsDrivers smoke-tests the drill-down report.
func TestSurveilReportMentionsDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is heavy")
	}
	ds, _, h := surveilEnv(t)
	surv, err := Surveil(context.Background(), ds, surveilOpts(h))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := surv.WriteReport(&buf, ds); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hierarchical surveillance:") {
		t.Fatal("report missing header")
	}
	if !strings.Contains(out, micgen.MedicineAntiplOrig) {
		t.Fatalf("report does not mention the planted decliner:\n%s", out)
	}
}

// TestHierarchyFromCodesDropsUnknown: codes absent from the vocabulary must
// not invent hierarchy entries.
func TestHierarchyFromCodesDropsUnknown(t *testing.T) {
	ds, _, err := micgen.Generate(micgen.Config{Seed: 7, Months: 4, RecordsPerMonth: 100})
	if err != nil {
		t.Fatal(err)
	}
	h := HierarchyFromCodes(ds,
		map[string]string{"NO-SUCH-MED": "X01", micgen.MedicineAntiplOrig: "B01"},
		map[string]string{"B01": "B"},
		map[string]string{"NO-SUCH-DIS": "X"})
	if len(h.DiseaseGroup) != 0 {
		t.Fatalf("unknown disease codes leaked: %v", h.DiseaseGroup)
	}
	id, ok := ds.Medicines.Lookup(micgen.MedicineAntiplOrig)
	if !ok {
		t.Fatal("scenario medicine missing")
	}
	if h.MedicineClass[mic.MedicineID(id)] != "B01" {
		t.Fatal("known medicine not mapped")
	}
	if h.Empty() {
		t.Fatal("hierarchy should not be empty")
	}
}

// TestSeriesKeyRoundTrip pins the typed key's rendering to the legacy
// stringly format and its parser to an exact inverse.
func TestSeriesKeyRoundTrip(t *testing.T) {
	keys := []SeriesKey{
		{Kind: KindDisease, Disease: 7},
		{Kind: KindMedicine, Medicine: 9},
		{Kind: KindPrescription, Disease: 3, Medicine: 11},
		{Kind: KindMedicineClass, Node: "B01"},
		{Kind: KindMedicineGroup, Node: "B"},
		{Kind: KindDiseaseGroup, Node: "NUTR"},
	}
	want := []string{"disease:7", "medicine:9", "prescription:3/11", "class:B01", "class-group:B", "disease-group:NUTR"}
	for i, k := range keys {
		if k.String() != want[i] {
			t.Fatalf("key %d renders %q, want %q", i, k.String(), want[i])
		}
		back, err := ParseSeriesKey(k.String())
		if err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("round trip %q → %+v, want %+v", k.String(), back, k)
		}
	}
	if _, err := ParseSeriesKey("nonsense"); err == nil {
		t.Fatal("junk key should not parse")
	}
}
