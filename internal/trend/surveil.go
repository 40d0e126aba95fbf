// Hierarchical surveillance: detect high, attribute down. Millions of
// disease/medicine pairs is too many to eyeball, so Surveil rolls the
// reproduced series up an ATC-like hierarchy (medicine → class → anatomical
// group; disease → disease group), runs the prefix-exact change point scan on
// the far smaller aggregate set, and then attributes each aggregate break to
// the child series driving it via per-child contribution deltas around the
// break — including offsetting substitution pairs (one member's decline
// absorbed by a sibling's rise) that are invisible at the aggregate level.
package trend

import (
	"context"
	"fmt"
	"io"
	"sort"

	"mictrend/internal/changepoint"
	"mictrend/internal/medmodel"
	"mictrend/internal/mic"
	"mictrend/internal/ssm"
)

// Hierarchy maps leaf series into the class tree, keyed by dataset
// vocabulary ids. Leaves absent from the maps are outside the hierarchy and
// are not surveilled; classes absent from ClassGroup form no group node.
type Hierarchy struct {
	// MedicineClass maps each medicine to its class code (e.g. "B01").
	MedicineClass map[mic.MedicineID]string `json:"medicine_class,omitempty"`
	// ClassGroup maps each class code to its anatomical group code ("B").
	ClassGroup map[string]string `json:"class_group,omitempty"`
	// DiseaseGroup maps each disease to its disease-group code ("RESP").
	DiseaseGroup map[mic.DiseaseID]string `json:"disease_group,omitempty"`
}

// Empty reports whether the hierarchy has no levels at all.
func (h Hierarchy) Empty() bool {
	return len(h.MedicineClass) == 0 && len(h.ClassGroup) == 0 && len(h.DiseaseGroup) == 0
}

// HierarchyFromCodes resolves a code-keyed hierarchy (such as the micgen
// catalog's ground-truth class maps) against a dataset's vocabularies.
// Codes missing from the vocabulary are dropped; vocabulary entries missing
// from the maps stay outside the hierarchy.
func HierarchyFromCodes(ds *mic.Dataset, medicineClass, classGroup, diseaseGroup map[string]string) Hierarchy {
	h := Hierarchy{ClassGroup: make(map[string]string, len(classGroup))}
	for class, group := range classGroup {
		h.ClassGroup[class] = group
	}
	h.MedicineClass = make(map[mic.MedicineID]string)
	for id, code := range ds.Medicines.Codes() {
		if class, ok := medicineClass[code]; ok {
			h.MedicineClass[mic.MedicineID(id)] = class
		}
	}
	h.DiseaseGroup = make(map[mic.DiseaseID]string)
	for id, code := range ds.Diseases.Codes() {
		if group, ok := diseaseGroup[code]; ok {
			h.DiseaseGroup[mic.DiseaseID(id)] = group
		}
	}
	return h
}

// SurveilOptions configures hierarchical surveillance.
type SurveilOptions struct {
	// Hierarchy is the class tree to roll series up. Required.
	Hierarchy Hierarchy
	// Pipeline carries the shared pipeline options: method, filters, worker
	// budget, and the Observer/Metrics/Trace/Explain instrumentation, with
	// the same contracts they have on Analyze.
	Pipeline Options
	// Analysis, when non-nil, reuses a completed Analyze run: its models and
	// reproduced series feed the roll-up, and its leaf detections cross-link
	// into the attribution (no drill-down scans needed). When Analyze ran it
	// with the same Method, Seasonal and Explain, a node whose series equals
	// a leaf's bit for bit takes that leaf's scan instead of repeating it;
	// the result, Fits included, is the same either way. Nil runs the model
	// and reproduce stages here — identically to Analyze — but skips the
	// flat per-leaf detection stage; that is the cheap detect-high path.
	Analysis *Analysis
	// Window is the contribution-delta window in months around a detected
	// aggregate break (default 6, clamped to the series bounds).
	Window int
	// MinShare drops attribution entries whose |delta| is below this
	// fraction of the node's own delta (default 0.05). The top contributor
	// is always kept.
	MinShare float64
	// OffsetMinShare is the minimum opposing move — both the decline and the
	// absorbing rise — as a fraction of the node's mean level for an offset
	// pair to be flagged (default 0.10).
	OffsetMinShare float64
	// OffsetCancel is the maximum |net node move| as a fraction of the
	// larger opposing move: 0 of a perfect substitution, 1 disables the
	// cancellation requirement (default 0.6).
	OffsetCancel float64
	// SkipDrillDown skips the per-child change point scans under detected
	// aggregates; attribution then carries contribution deltas only.
	SkipDrillDown bool
}

func (o SurveilOptions) withDefaults() SurveilOptions {
	if o.Window <= 0 {
		o.Window = 6
	}
	if o.MinShare <= 0 {
		o.MinShare = 0.05
	}
	if o.OffsetMinShare <= 0 {
		o.OffsetMinShare = 0.10
	}
	if o.OffsetCancel <= 0 {
		o.OffsetCancel = 0.6
	}
	return o
}

// Attribution is one child's contribution to a detected aggregate break:
// the change of its window-mean level across the break, its share of the
// node's own move, and — when the child was scanned or cross-linked from an
// Analysis — the child's own change point.
type Attribution struct {
	Child SeriesKey `json:"child"`
	// Delta is mean(child[cp:cp+w]) − mean(child[cp−w:cp]).
	Delta float64 `json:"delta"`
	// Share is Delta over the node's own delta (signed; shares of all
	// children sum to ≈1). When the node's net move is ≈0 — an offsetting
	// break — Share is Delta over the sum of |child deltas| instead.
	Share float64 `json:"share"`
	// ChildChangePoint is the child's own detected change point, -1 when the
	// child has none (or was not scanned).
	ChildChangePoint int `json:"child_change_point"`
}

// OffsetPair flags an offsetting substitution inside one node: Decliner's
// fall is absorbed by sibling rises, so the node aggregate moves little — a
// change invisible from the aggregate alone.
type OffsetPair struct {
	Node     SeriesKey `json:"node"`
	Decliner SeriesKey `json:"decliner"`
	// Riser is the largest single absorbing sibling; RiseDelta is the total
	// opposing rise across all siblings.
	Riser SeriesKey `json:"riser"`
	// Month is the split point with the strongest offsetting contrast.
	Month int `json:"month"`
	// DeclineDelta (negative) is the decliner's level change across Month;
	// RiseDelta (positive) the siblings' total opposing change; NetDelta the
	// node's own change.
	DeclineDelta float64 `json:"decline_delta"`
	RiseDelta    float64 `json:"rise_delta"`
	NetDelta     float64 `json:"net_delta"`
}

// SurveilNode is one aggregate series of the hierarchy.
type SurveilNode struct {
	Key SeriesKey `json:"key"`
	// Parent is the enclosing node's key (nil for top-level nodes).
	Parent *SeriesKey `json:"parent,omitempty"`
	// Children lists the member series keys in deterministic order:
	// medicines of a class, classes of a group, diseases of a disease group.
	Children []SeriesKey `json:"children"`
	// Series is the rolled-up aggregate series (sum of the children).
	Series []float64 `json:"series"`
	// Result is the aggregate change point scan's outcome. A node whose scan
	// failed keeps a zero Result and carries a StageSurveil failure.
	Result changepoint.Result `json:"result"`
	// Attribution ranks the children of a detected node by |Delta|; nil for
	// undetected nodes.
	Attribution []Attribution `json:"attribution,omitempty"`
}

// Surveillance is Surveil's output tree.
type Surveillance struct {
	// Nodes lists every aggregate node: classes, then class groups, then
	// disease groups, each sorted by node code.
	Nodes []SurveilNode `json:"nodes"`
	// Offsets lists the flagged offsetting substitution pairs, in node and
	// then child order. Offsets are detected on every node — not only
	// detected ones — precisely because a well-offset substitution leaves no
	// aggregate break.
	Offsets []OffsetPair `json:"offsets"`
	// Failures records the surveillance run's own degradations (aggregate
	// and drill-down scans, observer panics), sorted. The model/reproduce
	// stage failures live in Analysis.Failures as always.
	Failures []Failure `json:"failures,omitempty"`
	// AggregateFits and DrillFits count the model fits spent on aggregate
	// and drill-down scans (compare Analysis.TotalFits for the flat cost).
	AggregateFits int `json:"aggregate_fits"`
	DrillFits     int `json:"drill_fits"`
	// Hierarchy is the (id-keyed) hierarchy the run used.
	Hierarchy Hierarchy `json:"hierarchy"`
	// Provenance carries the aggregate and drill-down scan provenance when
	// Options.Explain is set.
	Provenance []SeriesProvenance `json:"-"`
	// Analysis is the underlying pipeline run: the fitted models, reproduced
	// series, and — when Surveil reused a full Analyze — the leaf
	// detections the attribution cross-links.
	Analysis *Analysis `json:"-"`
}

// Detected returns the nodes with a detected aggregate change point, in node
// order.
func (s *Surveillance) Detected() []*SurveilNode {
	var out []*SurveilNode
	for i := range s.Nodes {
		if s.Nodes[i].Result.Detected() {
			out = append(out, &s.Nodes[i])
		}
	}
	return out
}

// Node returns the node with the given key, or nil.
func (s *Surveillance) Node(k SeriesKey) *SurveilNode {
	for i := range s.Nodes {
		if s.Nodes[i].Key == k {
			return &s.Nodes[i]
		}
	}
	return nil
}

// Surveil runs hierarchical surveillance: roll the reproduced series up
// opts.Hierarchy, scan the aggregates for change points, attribute each
// detected break down to the children driving it, and flag offsetting
// substitution pairs.
//
// Surveil shares Analyze's contracts. Determinism: the roll-up consumes the
// deterministically merged ReproduceParallel series in sorted id order and
// every scan is worker-invariant, so the Surveillance tree is byte-identical
// for any Workers/ScanWorkers split. Failure degradation: a failed or
// panicked aggregate scan degrades that node only (recorded in
// Surveillance.Failures with StageSurveil); observer panics mute the
// observer and keep the run alive. Observability: the model/reproduce stages
// (when run here) emit exactly Analyze's events, followed by a "surveil"
// stage with one SeriesDone per node and — when drill-down scans run — a
// "surveil-drill" stage with one SeriesDone per scanned child; metrics land
// under surveil/* and spans on the detect lane. Cancelling ctx stops within
// one model fit and returns the partial tree alongside ctx's error.
func Surveil(ctx context.Context, ds *mic.Dataset, opts SurveilOptions) (*Surveillance, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	popts, ins := setupPipeline(ctx, opts.Pipeline)
	analysis := opts.Analysis
	if analysis == nil || analysis.Series == nil {
		var valFails []Failure
		var err error
		analysis, _, valFails, err = NewAnalyzer(opts.Pipeline).prepare(ctx, ds, popts, ins)
		if err != nil {
			return nil, err
		}
		if popts.Explain {
			analysis.SeriesProvenance = append(analysis.SeriesProvenance, valProvenance(valFails)...)
		}
		sortFailures(analysis.Failures)
	}
	surv := &Surveillance{Hierarchy: opts.Hierarchy, Analysis: analysis}
	nodes, classIdx := buildNodes(analysis.Series, opts.Hierarchy)
	surv.Nodes = nodes
	childAt := func(k SeriesKey) []float64 {
		switch k.Kind {
		case KindDisease:
			return analysis.Series.Disease(k.Disease)
		case KindMedicine:
			return analysis.Series.Medicine(k.Medicine)
		case KindMedicineClass:
			if i, ok := classIdx[k.Node]; ok {
				return nodes[i].Series
			}
		}
		return nil
	}

	// One memo serves both scan stages. A reused Analysis seeds it with its
	// leaf scans when they ran with these scan options, so a single-member
	// roll-up copies its member's scan instead of repeating it.
	memo := newScanMemo()
	if analysis.scan == scanConfigOf(popts) {
		memo.seed(analysis)
	}

	// Detect high: scan the aggregate set (far smaller than the leaf set).
	aggJobs := make([]scanJob, len(nodes))
	for i := range nodes {
		aggJobs[i] = scanJob{key: nodes[i].Key, series: nodes[i].Series}
	}
	endAgg := ins.stage("surveil", len(aggJobs))
	aggRes, aggOK, aggFails, aggProvs, aggFits, aerr := scanAll(ctx, surveilStage, aggJobs, memo, popts, ins)
	done := 0
	for i := range nodes {
		if aggOK[i] {
			nodes[i].Result = aggRes[i]
			done++
		}
	}
	endAgg(done, aerr)
	surv.Failures = append(surv.Failures, aggFails...)
	surv.AggregateFits = aggFits
	surv.Provenance = append(surv.Provenance, aggProvs...)

	// Attribute down: cross-link child change points (from the reused
	// Analysis and the class scans above), drill-scanning only the leaf
	// children of detected nodes that have no detection yet.
	childRes := make(map[SeriesKey]changepoint.Result)
	for i := range nodes {
		if aggOK[i] {
			childRes[nodes[i].Key] = nodes[i].Result
		}
	}
	for _, dets := range [][]Detection{analysis.Diseases, analysis.Medicines} {
		for _, det := range dets {
			childRes[det.Key()] = det.Result
		}
	}
	failed := make(map[SeriesKey]bool, len(aggFails))
	for i := range aggFails {
		failed[aggFails[i].Key()] = true
	}
	if aerr == nil && !opts.SkipDrillDown {
		var drillJobs []scanJob
		for i := range nodes {
			if !nodes[i].Result.Detected() {
				continue
			}
			for _, ck := range nodes[i].Children {
				if _, ok := childRes[ck]; ok {
					continue
				}
				if failed[ck] {
					continue // already degraded in the aggregate scan
				}
				if series := childAt(ck); series != nil {
					drillJobs = append(drillJobs, scanJob{key: ck, series: series})
				}
			}
		}
		if len(drillJobs) > 0 {
			endDrill := ins.stage("surveil-drill", len(drillJobs))
			dRes, dOK, dFails, dProvs, dFits, derr := scanAll(ctx, drillStage, drillJobs, memo, popts, ins)
			ddone := 0
			for i := range drillJobs {
				if dOK[i] {
					childRes[drillJobs[i].key] = dRes[i]
					ddone++
				}
			}
			endDrill(ddone, derr)
			surv.Failures = append(surv.Failures, dFails...)
			surv.DrillFits = dFits
			surv.Provenance = append(surv.Provenance, dProvs...)
			aerr = derr
		}
	}
	for i := range nodes {
		if nodes[i].Result.Detected() {
			nodes[i].Attribution = attribute(&nodes[i], childAt, childRes, opts)
		}
	}

	// Offset pairs are pure sliding-contrast arithmetic over the already
	// reproduced series — no extra fits, and independent of whether the node
	// aggregate broke (a perfect substitution never breaks it).
	surv.Offsets = detectOffsets(nodes, childAt, opts)

	ins.finishSurveil(surv)
	sortFailures(surv.Failures)
	if aerr != nil {
		return surv, aerr
	}
	return surv, ctx.Err()
}

// buildNodes rolls the reproduced series up the hierarchy in sorted id/code
// order, so the aggregates inherit ReproduceParallel's bit-exact determinism.
// It returns the node list (classes, class groups, disease groups — each
// sorted by code) and the class-code → node-index lookup.
func buildNodes(series *medmodel.SeriesSet, h Hierarchy) ([]SurveilNode, map[string]int) {
	var nodes []SurveilNode

	meds := series.Medicines()
	sort.Slice(meds, func(a, b int) bool { return meds[a] < meds[b] })
	classMembers := make(map[string][]mic.MedicineID)
	for _, m := range meds {
		if class, ok := h.MedicineClass[m]; ok {
			classMembers[class] = append(classMembers[class], m)
		}
	}
	classes := sortedKeys(classMembers)
	classIdx := make(map[string]int, len(classes))
	for _, class := range classes {
		node := newSurveilNode(SeriesKey{Kind: KindMedicineClass, Node: class})
		for _, m := range classMembers[class] {
			node.Children = append(node.Children, SeriesKey{Kind: KindMedicine, Medicine: m})
			node.Series = addSeries(node.Series, series.Medicine(m))
		}
		if group, ok := h.ClassGroup[class]; ok {
			pk := SeriesKey{Kind: KindMedicineGroup, Node: group}
			node.Parent = &pk
		}
		classIdx[class] = len(nodes)
		nodes = append(nodes, node)
	}

	groupMembers := make(map[string][]string)
	for _, class := range classes {
		if group, ok := h.ClassGroup[class]; ok {
			groupMembers[group] = append(groupMembers[group], class)
		}
	}
	for _, group := range sortedKeys(groupMembers) {
		node := newSurveilNode(SeriesKey{Kind: KindMedicineGroup, Node: group})
		for _, class := range groupMembers[group] {
			node.Children = append(node.Children, SeriesKey{Kind: KindMedicineClass, Node: class})
			node.Series = addSeries(node.Series, nodes[classIdx[class]].Series)
		}
		nodes = append(nodes, node)
	}

	diseases := series.Diseases()
	sort.Slice(diseases, func(a, b int) bool { return diseases[a] < diseases[b] })
	dgMembers := make(map[string][]mic.DiseaseID)
	for _, d := range diseases {
		if group, ok := h.DiseaseGroup[d]; ok {
			dgMembers[group] = append(dgMembers[group], d)
		}
	}
	for _, group := range sortedKeys(dgMembers) {
		node := newSurveilNode(SeriesKey{Kind: KindDiseaseGroup, Node: group})
		for _, d := range dgMembers[group] {
			node.Children = append(node.Children, SeriesKey{Kind: KindDisease, Disease: d})
			node.Series = addSeries(node.Series, series.Disease(d))
		}
		nodes = append(nodes, node)
	}
	return nodes, classIdx
}

// newSurveilNode starts a node with no change point, so nodes whose scan
// fails or is cancelled read as not-detected (a zero Result would claim a
// break at month 0).
func newSurveilNode(key SeriesKey) SurveilNode {
	node := SurveilNode{Key: key}
	node.Result.ChangePoint = ssm.NoChangePoint
	return node
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// addSeries accumulates src into dst (allocating dst on first use).
func addSeries(dst, src []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(src))
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// finishSurveil folds the run-level accounting into the surveillance tree:
// finish's failures, trips and counters, then the detection, offset and fit
// counters.
func (ins *pipelineInstruments) finishSurveil(surv *Surveillance) {
	surv.Failures = ins.finish(surv.Failures)
	if ins == nil || ins.metrics == nil {
		return
	}
	detected := 0
	for i := range surv.Nodes {
		if surv.Nodes[i].Result.Detected() {
			detected++
		}
	}
	m := ins.metrics
	m.Counter("surveil/nodes").Add(int64(len(surv.Nodes)))
	m.Counter("surveil/detections").Add(int64(detected))
	m.Counter("surveil/offset_pairs").Add(int64(len(surv.Offsets)))
	m.Counter("surveil/total_fits").Add(int64(surv.AggregateFits + surv.DrillFits))
}

// windowDelta is the change of s's w-month mean level across the break at
// cp: mean(s[cp:cp+w]) − mean(s[cp−w:cp]).
func windowDelta(s []float64, cp, w int) float64 {
	var before, after float64
	for i := cp - w; i < cp; i++ {
		before += s[i]
	}
	for i := cp; i < cp+w; i++ {
		after += s[i]
	}
	return (after - before) / float64(w)
}

// attribute ranks a detected node's children by their contribution delta
// around the break.
func attribute(node *SurveilNode, childAt func(SeriesKey) []float64, childRes map[SeriesKey]changepoint.Result, opts SurveilOptions) []Attribution {
	cp := node.Result.ChangePoint
	w := opts.Window
	if cp < w {
		w = cp
	}
	if len(node.Series)-cp < w {
		w = len(node.Series) - cp
	}
	if w < 1 {
		return nil
	}
	nodeDelta := windowDelta(node.Series, cp, w)
	var attrs []Attribution
	var sumAbs float64
	for _, ck := range node.Children {
		series := childAt(ck)
		if series == nil {
			continue
		}
		a := Attribution{Child: ck, Delta: windowDelta(series, cp, w), ChildChangePoint: -1}
		if res, ok := childRes[ck]; ok && res.Detected() {
			a.ChildChangePoint = res.ChangePoint
		}
		sumAbs += absf(a.Delta)
		attrs = append(attrs, a)
	}
	denom := absf(nodeDelta)
	if denom < 1e-9*sumAbs || denom == 0 {
		denom = sumAbs
	}
	for i := range attrs {
		if denom > 0 {
			attrs[i].Share = attrs[i].Delta / denom
		}
	}
	sort.SliceStable(attrs, func(a, b int) bool {
		da, db := absf(attrs[a].Delta), absf(attrs[b].Delta)
		if da != db {
			return da > db
		}
		return attrs[a].Child.less(attrs[b].Child)
	})
	// Trim the noise floor but always keep the top contributor.
	floor := opts.MinShare * denom
	kept := attrs[:0]
	for i, a := range attrs {
		if i > 0 && absf(a.Delta) < floor {
			break
		}
		kept = append(kept, a)
	}
	return kept
}

// detectOffsets slides a split point over each multi-child node and flags
// decliners whose fall is matched by sibling rises with little net node
// movement. The contrast at split t compares each child's mean level over
// [0,t) against [t,T) — O(children × T) arithmetic via prefix sums, no model
// fits — so substitutions with slow adoption ramps still show their full
// eventual migration.
func detectOffsets(nodes []SurveilNode, childAt func(SeriesKey) []float64, opts SurveilOptions) []OffsetPair {
	const edge = 4 // months required on each side of a split
	var out []OffsetPair
	for ni := range nodes {
		node := &nodes[ni]
		if len(node.Children) < 2 {
			continue
		}
		T := len(node.Series)
		if T < 2*edge+1 {
			continue
		}
		var nodeMean float64
		for _, v := range node.Series {
			nodeMean += v
		}
		nodeMean /= float64(T)
		if nodeMean <= 0 {
			continue
		}
		k := len(node.Children)
		prefix := make([][]float64, k)
		for c, ck := range node.Children {
			s := childAt(ck)
			if s == nil {
				s = make([]float64, T)
			}
			p := make([]float64, T+1)
			for i, v := range s {
				p[i+1] = p[i] + v
			}
			prefix[c] = p
		}
		type best struct {
			score, decline, riseSum, net float64
			month, riser                 int
		}
		bests := make([]*best, k)
		deltas := make([]float64, k)
		minMove := opts.OffsetMinShare * nodeMean
		for t := edge; t <= T-edge; t++ {
			var riseSum, net float64
			riser := -1
			for c := range prefix {
				p := prefix[c]
				before := p[t] / float64(t)
				after := (p[T] - p[t]) / float64(T-t)
				d := after - before
				deltas[c] = d
				net += d
				if d > 0 {
					riseSum += d
					if riser < 0 || d > deltas[riser] {
						riser = c
					}
				}
			}
			if riser < 0 || riseSum < minMove {
				continue
			}
			for c, d := range deltas {
				if d >= 0 {
					continue
				}
				decline := -d
				if decline < minMove {
					continue
				}
				if absf(net) > opts.OffsetCancel*maxf(decline, riseSum) {
					continue
				}
				score := decline
				if riseSum < score {
					score = riseSum
				}
				if bests[c] == nil || score > bests[c].score {
					bests[c] = &best{score: score, decline: d, riseSum: riseSum, net: net, month: t, riser: riser}
				}
			}
		}
		for c, b := range bests {
			if b == nil {
				continue
			}
			out = append(out, OffsetPair{
				Node:         node.Key,
				Decliner:     node.Children[c],
				Riser:        node.Children[b.riser],
				Month:        b.month,
				DeclineDelta: b.decline,
				RiseDelta:    b.riseSum,
				NetDelta:     b.net,
			})
		}
	}
	return out
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// WriteReport renders the drill-down report: every detected aggregate with
// its ranked attribution, then the offset pairs, then the surveillance
// failures. ds, when non-nil, resolves leaf ids to vocabulary codes.
func (s *Surveillance) WriteReport(w io.Writer, ds *mic.Dataset) error {
	label := func(k SeriesKey) string {
		if ds != nil {
			switch k.Kind {
			case KindDisease:
				return ds.Diseases.Code(int32(k.Disease))
			case KindMedicine:
				return ds.Medicines.Code(int32(k.Medicine))
			}
		}
		return k.String()
	}
	detected := s.Detected()
	if _, err := fmt.Fprintf(w, "hierarchical surveillance: %d aggregate series, %d detections, %d offset pairs, %d fits (aggregate %d + drill %d)\n",
		len(s.Nodes), len(detected), len(s.Offsets), s.AggregateFits+s.DrillFits, s.AggregateFits, s.DrillFits); err != nil {
		return err
	}
	for _, node := range detected {
		imp := node.Result.NoChangeAIC - node.Result.AIC
		fmt.Fprintf(w, "\n%s: change at month %d (AIC improvement %.1f, %d members)\n",
			node.Key, node.Result.ChangePoint, imp, len(node.Children))
		for _, a := range node.Attribution {
			cp := "cp none"
			if a.ChildChangePoint >= 0 {
				cp = fmt.Sprintf("cp %d", a.ChildChangePoint)
			}
			fmt.Fprintf(w, "  %-24s delta %+8.2f  share %+5.2f  %s\n", label(a.Child), a.Delta, a.Share, cp)
		}
	}
	if len(s.Offsets) > 0 {
		fmt.Fprintf(w, "\noffset pairs (decline absorbed by substitute):\n")
		for _, op := range s.Offsets {
			fmt.Fprintf(w, "  %s: %s %+0.2f -> %s (total rise %+0.2f, net %+0.2f) around month %d\n",
				op.Node, label(op.Decliner), op.DeclineDelta, label(op.Riser), op.RiseDelta, op.NetDelta, op.Month)
		}
	}
	if len(s.Failures) > 0 {
		fmt.Fprintf(w, "\nsurveillance failures:\n")
		for _, f := range s.Failures {
			fmt.Fprintf(w, "  %s\n", f.String())
		}
	}
	return nil
}
