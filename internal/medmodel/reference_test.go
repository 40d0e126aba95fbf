package medmodel

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mictrend/internal/mic"
	"mictrend/internal/micgen"
)

// This file keeps the map-based Eq. 7 reproduction, the map-based EM index
// construction and Eq. 10 estimate, and the two-pass EM loop (an E/M sweep,
// then a separate likelihood sweep per iteration) as test oracles: the
// streaming kernel, the dense index kernel and the fused sweep must match
// them bit for bit. It also keeps the entry-major occurrence table and its
// sweep the tiles replaced, the sweep that took one log per entry and
// scattered row sums, the per-occurrence sweep the weighted occurrence
// table replaced, and the map-based MAP-EM loop the smoothed fit ran on
// before it moved onto the kernel, which the kernel must match to rounding.

// responder is anything that spreads a medicine occurrence over a record's
// diseases: Model and Cooccurrence.
type responder interface {
	Responsibility(r *mic.Record, med mic.MedicineID) map[mic.DiseaseID]float64
}

// reproduceReference is the map-based reproduction: per month, one
// Responsibility map per (record, medicine) summed into a pair map in record
// order, then merged into the series by placement.
func reproduceReference(d *mic.Dataset, ests []responder) *SeriesSet {
	s := &SeriesSet{T: d.T(), Pairs: make(map[mic.Pair][]float64)}
	for t, month := range d.Months {
		local := make(map[mic.Pair]float64)
		for i := range month.Records {
			r := &month.Records[i]
			if len(r.Diseases) == 0 {
				continue
			}
			for _, med := range r.Medicines {
				for dis, q := range ests[t].Responsibility(r, med) {
					if q == 0 {
						continue
					}
					local[mic.Pair{Disease: dis, Medicine: med}] += q
				}
			}
		}
		for key, v := range local {
			series, ok := s.Pairs[key]
			if !ok {
				series = make([]float64, s.T)
				s.Pairs[key] = series
			}
			series[t] = v
		}
	}
	s.buildMarginals()
	return s
}

// cooccurrencePhi is the map-based Eq. 10 estimate. Cooc_r(d, m) counts each
// occurrence of medicine m in a record once per disease entry of the record.
func cooccurrencePhi(recs []*mic.Record) map[mic.DiseaseID]map[mic.MedicineID]float64 {
	phi := make(map[mic.DiseaseID]map[mic.MedicineID]float64)
	rowSums := make(map[mic.DiseaseID]float64)
	for _, r := range recs {
		for _, dc := range r.Diseases {
			row, ok := phi[dc.Disease]
			if !ok {
				row = make(map[mic.MedicineID]float64)
				phi[dc.Disease] = row
			}
			for _, med := range r.Medicines {
				row[med]++
				rowSums[dc.Disease]++
			}
		}
	}
	for d, row := range phi {
		sum := rowSums[d]
		if sum <= 0 {
			delete(phi, d)
			continue
		}
		for med := range row {
			row[med] /= sum
		}
	}
	return phi
}

// rowsReference interns the cooccurrence support through maps: the index's
// rows, φ at the Eq. 10 estimate and a zeroed accumulator, with an empty
// occurrence table, and the row of each disease.
func rowsReference(recs []*mic.Record) (*emIndex, map[mic.DiseaseID]int32) {
	phi := cooccurrencePhi(recs)
	ix := &emIndex{}

	ix.diseases = make([]mic.DiseaseID, 0, len(phi))
	for d := range phi {
		ix.diseases = append(ix.diseases, d)
	}
	sort.Slice(ix.diseases, func(a, b int) bool { return ix.diseases[a] < ix.diseases[b] })
	diseaseIdx := make(map[mic.DiseaseID]int32, len(ix.diseases))
	ix.rowStart = make([]int, len(ix.diseases)+1)
	for di, d := range ix.diseases {
		diseaseIdx[d] = int32(di)
		row := phi[d]
		meds := make([]mic.MedicineID, 0, len(row))
		for med := range row {
			meds = append(meds, med)
		}
		sort.Slice(meds, func(a, b int) bool { return meds[a] < meds[b] })
		for _, med := range meds {
			ix.rowMed = append(ix.rowMed, med)
			ix.val = append(ix.val, row[med])
		}
		ix.rowStart[di+1] = len(ix.rowMed)
	}
	ix.next = make([]float64, len(ix.val))
	return ix, diseaseIdx
}

// thetaSlotsReference returns the record's θ slots in first-occurrence
// order: each slot's row (-1 outside diseaseIdx) and θ_rd accumulated per
// entry in record order — the same quotient-sum Theta computes, but at a
// deterministic slot. A record whose counts do not sum to a positive N_r has
// none.
func thetaSlotsReference(rec *mic.Record, diseaseIdx map[mic.DiseaseID]int32) (dis []int32, theta []float64) {
	n := rec.NumDiseaseMentions()
	if n <= 0 {
		return nil, nil
	}
	slotOf := make(map[mic.DiseaseID]int)
	for _, dc := range rec.Diseases {
		s, ok := slotOf[dc.Disease]
		if !ok {
			s = len(theta)
			slotOf[dc.Disease] = s
			di, inSupport := diseaseIdx[dc.Disease]
			if !inSupport {
				di = -1
			}
			dis = append(dis, di)
			theta = append(theta, 0)
		}
		theta[s] += float64(dc.Count) / float64(n)
	}
	return dis, theta
}

// cellReference binary-searches row di for med: its index into val, or -1
// when the pair is outside the support.
func cellReference(ix *emIndex, di int32, med mic.MedicineID) int32 {
	if di < 0 {
		return -1
	}
	lo, hi := ix.rowStart[di], ix.rowStart[di+1]
	row := ix.rowMed[lo:hi]
	j := sort.Search(len(row), func(k int) bool { return row[k] >= med })
	if j < len(row) && row[j] == med {
		return int32(lo + j)
	}
	return -1
}

// entryIndex is the entry-major occurrence table arithmetic tag 4 swept,
// kept with that sweep as the oracle the tiled sweep must agree with to
// rounding: distinct occurrence e stands for weight[e] identical medicine
// occurrences and owns cells [cellStart[e], cellStart[e+1]), one per θ slot
// of its record in first-occurrence order; cell c's pos[c] is the index into
// val of the slot's (disease, medicine) pair. Slot s's θ and row are
// theta[thetaOff[e]+s] and dis[thetaOff[e]+s]: a record stores its slots
// once, when one of its occurrences is new. The embedded index holds the
// rows, φ, accumulators and prior; its own tile fields, which these shadow,
// are not read by the entry-major sweeps.
type entryIndex struct {
	*emIndex
	cellStart []int32
	thetaOff  []int32
	weight    []float64
	theta     []float64
	dis       []int32
	pos       []int32
}

// entryTableReference is the map-based occurrence table over rows' φ rows:
// each record's θ slots interned through maps, identical occurrences merged
// in first-appearance order through a map keyed by their slots' rows and θ
// bits and their medicine, one binary search per cell, every slab grown by
// append. A record's slots are stored when one of its occurrences is new.
func entryTableReference(recs []*mic.Record, rows *emIndex) *entryIndex {
	diseaseIdx := make(map[mic.DiseaseID]int32, len(rows.diseases))
	for di, d := range rows.diseases {
		diseaseIdx[d] = int32(di)
	}
	ex := &entryIndex{emIndex: rows, cellStart: []int32{0}}
	entries := make(map[string]int)
	for _, rec := range recs {
		dis, theta := thetaSlotsReference(rec, diseaseIdx)
		if len(theta) == 0 {
			continue
		}
		bits := make([]uint64, len(theta))
		for s, th := range theta {
			bits[s] = math.Float64bits(th)
		}
		off := int32(len(ex.theta))
		stored := false
		for _, med := range rec.Medicines {
			key := fmt.Sprint(dis, bits, med)
			if e, ok := entries[key]; ok {
				ex.weight[e]++
				continue
			}
			if !stored {
				ex.theta = append(ex.theta, theta...)
				ex.dis = append(ex.dis, dis...)
				stored = true
			}
			entries[key] = len(ex.weight)
			ex.weight = append(ex.weight, 1)
			ex.thetaOff = append(ex.thetaOff, off)
			for _, di := range dis {
				ex.pos = append(ex.pos, cellReference(rows, di, med))
			}
			ex.cellStart = append(ex.cellStart, int32(len(ex.pos)))
		}
	}
	return ex
}

// layTiles lays ex's entries out in ix's tiles in fresh slabs, one entry at
// a time in order, each into the next lane of its slot count's last tile,
// or of a new tile after the last one when that one is full or there is
// none. It returns each entry's lane (tile·tileW + lane).
func layTiles(ix *emIndex, ex *entryIndex) []int32 {
	ix.tiles, ix.weight, ix.theta, ix.pos = nil, nil, nil, nil
	open := make(map[int32]int)
	lanes := make([]int32, len(ex.weight))
	for e, w := range ex.weight {
		slots := ex.cellStart[e+1] - ex.cellStart[e]
		t, ok := open[slots]
		if !ok || ix.tiles[t].n == tileW {
			t = len(ix.tiles)
			open[slots] = t
			ix.tiles = append(ix.tiles, emTile{off: int32(len(ix.theta)), slots: slots})
			ix.weight = append(ix.weight, make([]float64, tileW)...)
			ix.theta = append(ix.theta, make([]float64, slots*tileW)...)
			ix.pos = append(ix.pos, make([]int32, slots*tileW)...)
		}
		tl := &ix.tiles[t]
		for s := range slots {
			c := tl.off + s*tileW + tl.n
			ix.theta[c] = ex.theta[ex.thetaOff[e]+s]
			ix.pos[c] = ex.pos[ex.cellStart[e]+s]
		}
		lanes[e] = int32(t)*tileW + tl.n
		ix.weight[lanes[e]] = w
		tl.n++
	}
	return lanes
}

// emIndexReference is the map-based index construction: the cooccurrence
// support, the map-based occurrence table, and that table laid out in
// tiles.
func emIndexReference(recs []*mic.Record) *emIndex {
	ix, _ := rowsReference(recs)
	layTiles(ix, entryTableReference(recs, ix))
	return ix
}

// laneCells returns the cells of lane l of tile tl, in slot order.
func laneCells(tl emTile, l int) []int {
	cells := make([]int, tl.slots)
	for s := range cells {
		cells[s] = int(tl.off) + s*tileW + l
	}
	return cells
}

// iterateReference is the unfused EM step: E-step under the current φ, then
// the M-step. Tile by tile, an entry of weight w and predictive probability
// p > 0 adds θ·φ·(w/p) to each cell, slot by slot across the tile's lanes,
// or, where w/p overflows, θ·φ/p·w ahead of the tile's other entries; each
// row is normalized by the sum of its counts.
func iterateReference(ix *emIndex) {
	for i := range ix.next {
		ix.next[i] = 0
	}
	for t, tl := range ix.tiles {
		r := make([]float64, tl.n)
		skip := make([]bool, tl.n)
		for l := range r {
			w := ix.weight[t*tileW+l]
			var p float64
			for _, c := range laneCells(tl, l) {
				p += ix.theta[c] * ix.val[ix.pos[c]]
			}
			r[l] = w / p
			if p <= 0 || math.IsInf(r[l], 1) {
				skip[l] = true
			}
			if p > 0 && math.IsInf(r[l], 1) {
				for _, c := range laneCells(tl, l) {
					ix.next[ix.pos[c]] += ix.theta[c] * ix.val[ix.pos[c]] / p * w
				}
			}
		}
		for s := range int(tl.slots) {
			for l := range r {
				if skip[l] {
					continue
				}
				c := laneCells(tl, l)[s]
				ix.next[ix.pos[c]] += ix.theta[c] * ix.val[ix.pos[c]] * r[l]
			}
		}
	}
	for d := range ix.diseases {
		lo, hi := ix.rowStart[d], ix.rowStart[d+1]
		var sum float64
		for i := lo; i < hi; i++ {
			sum += ix.next[i]
		}
		if sum <= 0 {
			for i := lo; i < hi; i++ {
				ix.val[i] = 0
			}
			continue
		}
		for i := lo; i < hi; i++ {
			ix.val[i] = ix.next[i] / sum
		}
	}
}

// logLikReference is the separate likelihood sweep under the current φ,
// over the entries tile by tile in lane order. An entry of integer weight
// w ≤ 16 whose predictive probability p lies in [2⁻¹⁰⁰⁰, 2¹⁰⁰⁰) multiplies
// p into weight w's product, held as a math.Frexp fraction and exponent;
// any other entry adds w·log(p), p ≤ 0 clamped to the smallest positive
// float. Then each product other than 1 adds w·log of itself, in ascending
// w.
func logLikReference(ix *emIndex) float64 {
	type product struct {
		frac float64 // in [0.5, 1); 0 while the product is empty
		exp  int
	}
	var prods [17]product
	var ll float64
	for t, tl := range ix.tiles {
		for l := range int(tl.n) {
			w := ix.weight[t*tileW+l]
			var p float64
			for _, c := range laneCells(tl, l) {
				p += ix.theta[c] * ix.val[ix.pos[c]]
			}
			if w >= 1 && w <= 16 && w == math.Trunc(w) && p >= 0x1p-1000 && p < 0x1p1000 {
				pr := &prods[int(w)]
				if pr.frac == 0 {
					pr.frac, pr.exp = 0.5, 1
				}
				f, x := math.Frexp(pr.frac * p)
				pr.frac, pr.exp = f, pr.exp+x
				continue
			}
			if p <= 0 {
				p = math.SmallestNonzeroFloat64
			}
			ll += w * math.Log(p)
		}
	}
	for w, pr := range prods {
		m, e := 2*pr.frac, pr.exp-1 // the product as a mantissa in [1, 2) times 2^e
		if pr.frac == 0 || m == 1 && e == 0 {
			continue
		}
		ll += float64(w) * (float64(e)*math.Ln2 + math.Log(m))
	}
	return ll
}

// fitTwoSweep is Fit with the unfused loop: 2K sweeps for K iterations.
func fitTwoSweep(month *mic.Monthly, vocabMedicines int, opts FitOptions) (*Model, error) {
	opts = opts.withDefaults()
	recs, err := usableRecords(month)
	if err != nil {
		return nil, err
	}
	ix := emIndexReference(recs)
	model := &Model{Eta: EstimateEta(month), M: vocabMedicines}
	prevLL := math.Inf(-1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		iterateReference(ix)
		model.Iterations = iter + 1
		ll := logLikReference(ix)
		model.LogLik = ll
		if opts.TraceConvergence {
			model.LogLikTrace = append(model.LogLikTrace, ll)
		}
		if converged(prevLL, ll, opts.Tol) {
			break
		}
		prevLL = ll
	}
	model.Phi = ix.phiMap()
	return model, nil
}

// converged is Fit's stop rule: the relative log-likelihood improvement
// fell below tol.
func converged(prevLL, ll, tol float64) bool {
	if prevLL == math.Inf(-1) {
		return false
	}
	denom := math.Abs(prevLL)
	if denom == 0 {
		denom = 1
	}
	return (ll-prevLL)/denom < tol
}

// sweeper is an index under one EM arithmetic: its fused sweep, its M-step
// and the fitted φ.
type sweeper interface {
	sweep() float64
	mstep()
	phiMap() map[mic.DiseaseID]map[mic.MedicineID]float64
}

// fitLoop is Fit's loop over ix, which holds the month's index.
func fitLoop(ix sweeper, month *mic.Monthly, vocabMedicines int, opts FitOptions) *Model {
	opts = opts.withDefaults()
	model := &Model{Eta: EstimateEta(month), M: vocabMedicines}
	ix.sweep()
	prevLL := math.Inf(-1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		ix.mstep()
		ll := ix.sweep()
		model.Iterations = iter + 1
		model.LogLik = ll
		if opts.TraceConvergence {
			model.LogLikTrace = append(model.LogLikTrace, ll)
		}
		if converged(prevLL, ll, opts.Tol) {
			break
		}
		prevLL = ll
	}
	model.Phi = ix.phiMap()
	return model
}

// sweep is arithmetic tag 4's fused sweep over the entry-major table: the
// E-step and likelihood of emIndex.sweep, entry by entry in first-appearance
// order, each entry's cells scattered before the next entry's.
func (ix *entryIndex) sweep() float64 {
	clear(ix.next)
	var mant [prodWeights]float64
	var exp [prodWeights]int
	for k := range mant {
		mant[k] = 1
	}
	var ll float64
	for e, w := range ix.weight {
		lo, hi, t := ix.cellStart[e], ix.cellStart[e+1], ix.thetaOff[e]
		blk := ix.pos[lo:hi]
		theta := ix.theta[t : t+hi-lo]
		var denom float64
		for s, p := range blk {
			denom += theta[s] * ix.val[p]
		}
		r := w / denom
		if k := int(w) - 1; uint(k) < prodWeights && float64(k+1) == w && math.Float64bits(denom)-prodLoBits < prodSpanBits {
			b := math.Float64bits(mant[k] * denom)
			exp[k] += int(b>>52) - 1023
			mant[k] = math.Float64frombits(b&fracBits | oneBits)
		} else {
			ll += w * math.Log(max(denom, math.SmallestNonzeroFloat64))
			if denom <= 0 {
				continue
			}
			if r > math.MaxFloat64 {
				for s, p := range blk {
					ix.next[p] += theta[s] * ix.val[p] / denom * w
				}
				continue
			}
		}
		for s, p := range blk {
			ix.next[p] += theta[s] * ix.val[p] * r
		}
	}
	for k, m := range mant {
		if m != 1 || exp[k] != 0 {
			ll += float64(k+1) * (float64(exp[k])*math.Ln2 + math.Log(m))
		}
	}
	return ll
}

// entryTable builds the month on a fresh kernel, centers the prior of weight
// w on it as the fit does, and returns the entry-major table over its rows.
func entryTable(month *mic.Monthly, prior *Model, w float64) (*entryIndex, error) {
	k := new(emKernel)
	ix, err := k.build(month)
	if err != nil {
		return nil, err
	}
	k.setPrior(prior, w)
	recs, err := usableRecords(month)
	if err != nil {
		return nil, err
	}
	return entryTableReference(recs, ix), nil
}

// fitEntryMajor is the kernel's fit, plain or under a prior of weight w > 0,
// run under tag 4's entry-major sweep.
func fitEntryMajor(month *mic.Monthly, vocabMedicines int, opts FitOptions, prior *Model, w float64) (*Model, error) {
	ex, err := entryTable(month, prior, w)
	if err != nil {
		return nil, err
	}
	return fitLoop(ex, month, vocabMedicines, opts), nil
}

// sumLogIndex runs an entry-major table under the sweep and M-step of
// arithmetic tag 3, kept as the oracle the product-accumulated sweep must
// agree with to rounding: the sweep adds w·log(p) once per entry and
// w·(θ·φ/p) into each cell and into its row's sum, by which the M-step
// divides.
type sumLogIndex struct {
	*entryIndex
	rowSum []float64
}

func newSumLogIndex(ix *entryIndex) *sumLogIndex {
	return &sumLogIndex{entryIndex: ix, rowSum: make([]float64, len(ix.diseases))}
}

func (ix *sumLogIndex) sweep() float64 {
	clear(ix.next)
	clear(ix.rowSum)
	var ll float64
	for e, w := range ix.weight {
		lo, hi, t := ix.cellStart[e], ix.cellStart[e+1], ix.thetaOff[e]
		blk := ix.pos[lo:hi]
		theta, dis := ix.theta[t:t+hi-lo], ix.dis[t:t+hi-lo]
		var denom float64
		for s, p := range blk {
			denom += theta[s] * ix.val[p]
		}
		p := denom
		if p <= 0 {
			p = math.SmallestNonzeroFloat64
		}
		ll += w * math.Log(p)
		if denom <= 0 {
			continue
		}
		for s, p := range blk {
			q := theta[s] * ix.val[p] / denom
			if q == 0 {
				continue
			}
			q *= w
			ix.next[p] += q
			ix.rowSum[dis[s]] += q
		}
	}
	return ll
}

func (ix *sumLogIndex) mstep() {
	for d, sum := range ix.rowSum {
		lo, hi := ix.rowStart[d], ix.rowStart[d+1]
		if ix.prior {
			sum += ix.rowPrior[d]
			ix.norm[d] = sum
			for i := lo; i < hi; i++ {
				ix.next[i] += ix.pw[i]
			}
		}
		if sum <= 0 {
			clear(ix.val[lo:hi])
			continue
		}
		for i := lo; i < hi; i++ {
			ix.val[i] = ix.next[i] / sum
		}
	}
}

// fitSumOfLogs is the kernel's fit, plain or under a prior of weight w > 0,
// run under tag 3's sweep.
func fitSumOfLogs(month *mic.Monthly, vocabMedicines int, opts FitOptions, prior *Model, w float64) (*Model, error) {
	ex, err := entryTable(month, prior, w)
	if err != nil {
		return nil, err
	}
	return fitLoop(newSumLogIndex(ex), month, vocabMedicines, opts), nil
}

// occIndex is the per-occurrence layout the weighted occurrence table
// replaced, kept as the oracle the weighted sweep must agree with to
// rounding: every medicine occurrence keeps its own cells. Record r owns θ
// slots [thetaStart[r], thetaStart[r+1]), and its o-th occurrence's slot s
// maps to occPos[occStart[r]+o*slots(r)+s], an index into val, or -1 when
// the pair is outside the support. The embedded index holds the rows, φ
// and accumulators, and runs tag 3's M-step; its occurrence table stays
// empty.
type occIndex struct {
	*sumLogIndex
	thetaStart []int
	thetaDis   []int32
	thetaVal   []float64
	occStart   []int
	occPos     []int32
	numMeds    []int
}

// occIndexReference builds the per-occurrence layout through maps.
func occIndexReference(recs []*mic.Record) *occIndex {
	rows, diseaseIdx := rowsReference(recs)
	ix := &occIndex{sumLogIndex: newSumLogIndex(&entryIndex{emIndex: rows})}
	ix.thetaStart = make([]int, len(recs)+1)
	ix.occStart = make([]int, len(recs)+1)
	ix.numMeds = make([]int, len(recs))
	for r, rec := range recs {
		dis, theta := thetaSlotsReference(rec, diseaseIdx)
		ix.thetaDis = append(ix.thetaDis, dis...)
		ix.thetaVal = append(ix.thetaVal, theta...)
		ix.thetaStart[r+1] = len(ix.thetaVal)
		ix.numMeds[r] = len(rec.Medicines)
		for _, med := range rec.Medicines {
			for _, di := range dis {
				ix.occPos = append(ix.occPos, cellReference(ix.emIndex, di, med))
			}
		}
		ix.occStart[r+1] = len(ix.occPos)
	}
	return ix
}

// sweep is the fused sweep over every occurrence in record order: the
// likelihood adds log(p) once per occurrence, and the E-step adds each
// occurrence's θ·φ/denom on its own.
func (ix *occIndex) sweep() float64 {
	clear(ix.next)
	clear(ix.rowSum)
	var ll float64
	for r := range ix.numMeds {
		ts := ix.thetaStart[r]
		slots := ix.thetaStart[r+1] - ts
		if slots == 0 {
			continue
		}
		theta := ix.thetaVal[ts : ts+slots]
		dis := ix.thetaDis[ts : ts+slots]
		base := ix.occStart[r]
		for o := 0; o < ix.numMeds[r]; o++ {
			blk := ix.occPos[base+o*slots : base+(o+1)*slots]
			var denom float64
			for s, p := range blk {
				if p >= 0 {
					denom += theta[s] * ix.val[p]
				}
			}
			p := denom
			if p <= 0 {
				p = math.SmallestNonzeroFloat64
			}
			ll += math.Log(p)
			if denom <= 0 {
				continue
			}
			for s, p := range blk {
				if p < 0 {
					continue
				}
				q := theta[s] * ix.val[p] / denom
				if q == 0 {
					continue
				}
				ix.next[p] += q
				ix.rowSum[dis[s]] += q
			}
		}
	}
	return ll
}

// fitPerOccurrence is Fit's loop over the per-occurrence sweep.
func fitPerOccurrence(month *mic.Monthly, vocabMedicines int, opts FitOptions) (*Model, error) {
	recs, err := usableRecords(month)
	if err != nil {
		return nil, err
	}
	return fitLoop(occIndexReference(recs), month, vocabMedicines, opts), nil
}

// thetaEntry is one (disease, θ_rd) pair of a record's topic mixture held in
// ascending-disease order, so every float accumulation over a record's θ runs
// in a fixed order.
type thetaEntry struct {
	d  mic.DiseaseID
	th float64
}

func sortedTheta(r *mic.Record) []thetaEntry {
	theta := Theta(r)
	out := make([]thetaEntry, 0, len(theta))
	for d, th := range theta {
		out = append(out, thetaEntry{d: d, th: th})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].d < out[b].d })
	return out
}

// sortedRowKeys returns a φ row's medicine ids in ascending order.
func sortedRowKeys(row map[mic.MedicineID]float64) []mic.MedicineID {
	meds := make([]mic.MedicineID, 0, len(row))
	for med := range row {
		meds = append(meds, med)
	}
	sort.Slice(meds, func(a, b int) bool { return meds[a] < meds[b] })
	return meds
}

// fitSmoothedReference is the map-based MAP-EM loop: φ as maps of maps
// started from the Eq. 10 estimate blended with the prior, the E-step over
// each record's θ in ascending disease order, the pseudo-counts
// priorWeight·φ_prev added to every M-step in ascending id order, and a
// separate likelihood pass. Records whose counts do not sum to a positive
// N_r count in the Eq. 10 start but, as in the kernel, have no θ: no
// likelihood term and no E-step (validated input has none).
func fitSmoothedReference(month *mic.Monthly, vocabMedicines int, opts FitOptions, prior *Model, priorWeight float64) (*Model, error) {
	if prior == nil || priorWeight <= 0 {
		return Fit(month, vocabMedicines, opts)
	}
	opts = opts.withDefaults()
	usable, err := usableRecords(month)
	if err != nil {
		return nil, err
	}
	phi := cooccurrencePhi(usable)
	blendPrior(phi, prior.Phi, priorWeight)
	var recs []*mic.Record
	for _, r := range usable {
		if r.NumDiseaseMentions() > 0 {
			recs = append(recs, r)
		}
	}

	// Fix the iteration orders once: per-record θ ascending by disease, and
	// the prior's rows and entries ascending by id.
	thetas := make([][]thetaEntry, len(recs))
	for i, r := range recs {
		thetas[i] = sortedTheta(r)
	}
	priorDiseases := make([]mic.DiseaseID, 0, len(prior.Phi))
	for d := range prior.Phi {
		priorDiseases = append(priorDiseases, d)
	}
	sort.Slice(priorDiseases, func(a, b int) bool { return priorDiseases[a] < priorDiseases[b] })
	priorMeds := make([][]mic.MedicineID, len(priorDiseases))
	for i, d := range priorDiseases {
		priorMeds[i] = sortedRowKeys(prior.Phi[d])
	}

	model := &Model{Eta: EstimateEta(month), Phi: phi, M: vocabMedicines}
	prevLL := math.Inf(-1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		next := make(map[mic.DiseaseID]map[mic.MedicineID]float64, len(phi))
		rowSums := make(map[mic.DiseaseID]float64, len(phi))
		for ri, r := range recs {
			theta := thetas[ri]
			for _, med := range r.Medicines {
				var denom float64
				for _, e := range theta {
					if row, ok := phi[e.d]; ok {
						denom += e.th * row[med]
					}
				}
				if denom <= 0 {
					continue
				}
				for _, e := range theta {
					row, ok := phi[e.d]
					if !ok {
						continue
					}
					q := e.th * row[med] / denom
					if q == 0 {
						continue
					}
					nrow, ok := next[e.d]
					if !ok {
						nrow = make(map[mic.MedicineID]float64)
						next[e.d] = nrow
					}
					nrow[med] += q
					rowSums[e.d] += q
				}
			}
		}
		// The MAP step: priorWeight·φ_prev as pseudo-counts.
		for i, d := range priorDiseases {
			prow := prior.Phi[d]
			nrow, ok := next[d]
			if !ok {
				nrow = make(map[mic.MedicineID]float64)
				next[d] = nrow
			}
			for _, med := range priorMeds[i] {
				add := priorWeight * prow[med]
				nrow[med] += add
				rowSums[d] += add
			}
		}
		for d, nrow := range next {
			sum := rowSums[d]
			if sum <= 0 {
				delete(next, d)
				continue
			}
			for med := range nrow {
				nrow[med] /= sum
			}
		}
		phi = next
		model.Phi = phi
		model.Iterations = iter + 1

		ll := logLikelihoodSorted(recs, thetas, phi)
		model.LogLik = ll
		if opts.TraceConvergence {
			model.LogLikTrace = append(model.LogLikTrace, ll)
		}
		if converged(prevLL, ll, opts.Tol) {
			break
		}
		prevLL = ll
	}
	return model, nil
}

// logLikelihoodSorted is the Φ part of Eq. 3 with each record's θ in sorted
// order.
func logLikelihoodSorted(recs []*mic.Record, thetas [][]thetaEntry, phi map[mic.DiseaseID]map[mic.MedicineID]float64) float64 {
	var ll float64
	for ri, r := range recs {
		for _, med := range r.Medicines {
			var p float64
			for _, e := range thetas[ri] {
				if row, ok := phi[e.d]; ok {
					p += e.th * row[med]
				}
			}
			if p <= 0 {
				p = math.SmallestNonzeroFloat64
			}
			ll += math.Log(p)
		}
	}
	return ll
}

// blendPrior mixes prior rows into phi so the EM support covers both: each
// prior row's weight·φ_prev is added to the row's Eq. 10 estimate, and the
// row renormalized, both in ascending key order.
func blendPrior(phi, prior map[mic.DiseaseID]map[mic.MedicineID]float64, weight float64) {
	diseases := make([]mic.DiseaseID, 0, len(prior))
	for d := range prior {
		diseases = append(diseases, d)
	}
	sort.Slice(diseases, func(a, b int) bool { return diseases[a] < diseases[b] })
	for _, d := range diseases {
		prow := prior[d]
		row, ok := phi[d]
		if !ok {
			row = make(map[mic.MedicineID]float64)
			phi[d] = row
		}
		for _, med := range sortedRowKeys(prow) {
			row[med] += weight * prow[med]
		}
		var sum float64
		for _, med := range sortedRowKeys(row) {
			sum += row[med]
		}
		if sum > 0 {
			for med := range row {
				row[med] /= sum
			}
		}
	}
}

// requireSeriesBits fails unless got and want hold the same pairs and
// marginals with bit-identical values.
func requireSeriesBits(t *testing.T, label string, got, want *SeriesSet) {
	t.Helper()
	requireSeriesClose(t, label, got, want, 0)
}

// requireSeriesClose fails unless got and want hold the same pairs and
// marginals, each value within rel of the other relative to the larger
// magnitude, and returns the largest relative difference it saw. rel 0
// demands identical bits, so +0 against -0 fails too.
func requireSeriesClose(t *testing.T, label string, got, want *SeriesSet, rel float64) float64 {
	t.Helper()
	var worst float64
	same := func(kind string, key any, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s %v: length %d, want %d", label, kind, key, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) == math.Float64bits(b[i]) {
				continue
			}
			d := relDiff(a[i], b[i])
			worst = max(worst, d)
			if rel == 0 || !(d <= rel) {
				t.Fatalf("%s: %s %v month %d: %v (%#x), want %v (%#x): relative difference %.3g > %g",
					label, kind, key, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]), d, rel)
			}
		}
	}
	if got.T != want.T || len(got.Pairs) != len(want.Pairs) ||
		len(got.diseaseSeries) != len(want.diseaseSeries) || len(got.medicineSeries) != len(want.medicineSeries) {
		t.Fatalf("%s: T/pairs/diseases/medicines = %d/%d/%d/%d, want %d/%d/%d/%d", label,
			got.T, len(got.Pairs), len(got.diseaseSeries), len(got.medicineSeries),
			want.T, len(want.Pairs), len(want.diseaseSeries), len(want.medicineSeries))
	}
	for p, w := range want.Pairs {
		g, ok := got.Pairs[p]
		if !ok {
			t.Fatalf("%s: pair %v missing", label, p)
		}
		same("pair", p, g, w)
	}
	for d, w := range want.diseaseSeries {
		same("disease", d, got.diseaseSeries[d], w)
	}
	for m, w := range want.medicineSeries {
		same("medicine", m, got.medicineSeries[m], w)
	}
	return worst
}

// edgeDataset is a hand-built corpus of the records the kernel must treat
// exactly as Responsibility does: duplicate disease entries, zero-count
// diseases, a record whose counts sum to zero, a medicine repeated in one
// record, records without diseases or without medicines, and a month
// without diseases.
func edgeDataset() *mic.Dataset {
	d := mic.NewDataset()
	for _, c := range []string{"d0", "d1", "d2", "d3", "d4"} {
		d.Diseases.Intern(c)
	}
	for _, c := range []string{"m0", "m1", "m2", "m3", "m4"} {
		d.Medicines.Intern(c)
	}
	d.AddHospital(mic.Hospital{Code: "H"})
	dc := func(pairs ...int) []mic.DiseaseCount {
		var out []mic.DiseaseCount
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, mic.DiseaseCount{Disease: mic.DiseaseID(pairs[i]), Count: pairs[i+1]})
		}
		return out
	}
	meds := func(ids ...int) []mic.MedicineID {
		var out []mic.MedicineID
		for _, id := range ids {
			out = append(out, mic.MedicineID(id))
		}
		return out
	}
	month := func(t int) *mic.Monthly {
		m := &mic.Monthly{Month: t}
		for i := 0; i < 3; i++ {
			m.Records = append(m.Records,
				mic.Record{Diseases: dc(0, 1), Medicines: meds(0)},
				mic.Record{Diseases: dc(1, 2), Medicines: meds(1, 2)},
				mic.Record{Diseases: dc(0, 1, 1, 1), Medicines: meds(0, 1)},
			)
		}
		m.Records = append(m.Records,
			mic.Record{Diseases: dc(2, 1, 0, 2, 2, 3), Medicines: meds(0, 2)},          // duplicate entries
			mic.Record{Diseases: dc(3, 0, 1, 2), Medicines: meds(1, 3)},                // zero-count disease
			mic.Record{Diseases: dc(3, 0, 2, 0), Medicines: meds(2, 3)},                // counts sum to 0
			mic.Record{Diseases: dc(1, 1, 2, 1), Medicines: meds(2, 2, 1, 2)},          // repeated medicine
			mic.Record{Diseases: dc(4, 1, 0, 1), Medicines: meds(4, 0)},                // d4/m4 only here
			mic.Record{Medicines: meds(0, 1)},                                          // no diseases
			mic.Record{Diseases: dc(0, 1, 1, 1)},                                       // no medicines
			mic.Record{Diseases: dc(2, 1, 2, 1, 0, 1), Medicines: meds(3, 3, 0, 4, 1)}, // everything at once
		)
		return m
	}
	// A month in which no record has a disease reproduces nothing.
	bare := &mic.Monthly{Month: 3, Records: []mic.Record{{Medicines: meds(0, 1)}, {}}}
	d.Months = []*mic.Monthly{month(0), month(1), month(2), bare}
	return d
}

// clonePhi deep-copies a φ map so a test can edit it.
func clonePhi(phi map[mic.DiseaseID]map[mic.MedicineID]float64) map[mic.DiseaseID]map[mic.MedicineID]float64 {
	out := make(map[mic.DiseaseID]map[mic.MedicineID]float64, len(phi))
	for d, row := range phi {
		nrow := make(map[mic.MedicineID]float64, len(row))
		for m, v := range row {
			nrow[m] = v
		}
		out[d] = nrow
	}
	return out
}

// reproduceRel bounds how far a reproduced value may lie from the map-based
// reference, relative to the larger magnitude. The reference divides θ·φ by
// the normalizer once per occurrence and sums the quotients; the occurrence
// table multiplies θ·φ by one reciprocal per distinct occurrence, scaled by
// its weight, so the two agree to rounding, not bit for bit.
const reproduceRel = 1e-13

// TestReproduceMatchesReference pins Reproduce against the map-based
// reference: the same pairs and marginals in every case, including deleted
// and zeroed φ entries, the θ fallback and contributions that cancel, with
// every value within reproduceRel; any worker count bit-identical to the
// serial run; and the cooccurrence baseline bit for bit.
func TestReproduceMatchesReference(t *testing.T) {
	type corpus struct {
		name   string
		ds     *mic.Dataset
		models []*Model
		coocs  []*Cooccurrence
	}
	fit := func(name string, ds *mic.Dataset) corpus {
		t.Helper()
		models, fails, err := FitAll(context.Background(), ds, FitOptions{MaxIter: 15})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fails {
			models[f.Month] = FallbackModel(ds.Months[f.Month], ds.Medicines.Len())
		}
		coocs := make([]*Cooccurrence, ds.T())
		for i, m := range ds.Months {
			c, err := FitCooccurrence(m, ds.Medicines.Len())
			if err != nil {
				c = &Cooccurrence{M: ds.Medicines.Len()}
			}
			coocs[i] = c
		}
		return corpus{name: name, ds: ds, models: models, coocs: coocs}
	}
	var corpora []corpus
	for i, cfg := range []micgen.Config{
		{Seed: 3, Months: 6, RecordsPerMonth: 300, BulkDiseases: 6, BulkMedicines: 8},
		{Seed: 17, Months: 4, RecordsPerMonth: 600, BulkDiseases: 20, BulkMedicines: 25},
		{Seed: 29, Months: 5, RecordsPerMonth: 200},
	} {
		ds, _, err := micgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			ds = mic.FilterDataset(ds, mic.DefaultFilterOptions())
		}
		corpora = append(corpora, fit(fmt.Sprintf("micgen-%d", i), ds))
	}

	edge := fit("edge", edgeDataset())
	corpora = append(corpora, edge)

	// The same corpus under edited models: φ rows with deleted and zeroed
	// entries send occurrences down the θ fallback onto pairs outside φ's
	// support, and rows and entries for ids the month never mentions must
	// be ignored.
	edited := corpus{name: "edge-edited-phi", ds: edge.ds}
	for i, m := range edge.models {
		phi := clonePhi(m.Phi)
		delete(phi[1], 2)
		delete(phi[2], 0)
		delete(phi[2], 2)
		if row := phi[0]; row != nil {
			row[1] = 0
			row[70] = 0.25
		}
		delete(phi, 3)
		phi[40] = map[mic.MedicineID]float64{0: 0.5, 90: 0.5}
		phi[-3] = map[mic.MedicineID]float64{1: 1}
		edited.models = append(edited.models, &Model{Phi: phi, M: m.M})

		cphi := clonePhi(edge.coocs[i].Phi)
		delete(cphi[2], 3)
		delete(cphi, 4)
		cphi[41] = map[mic.MedicineID]float64{2: 1}
		edited.coocs = append(edited.coocs, &Cooccurrence{Phi: cphi, M: edge.coocs[i].M})
	}
	// An empty φ sends everything through the fallback.
	edited.models[2] = &Model{M: edited.models[2].M}
	corpora = append(corpora, edited)

	// A pair whose contributions cancel to exactly 0 is still present, as
	// in the reference's pair map: presence is "received a nonzero q", not
	// "nonzero sum". Negative φ is not a distribution, but it is the only
	// way to reach that case.
	cancel := corpus{name: "cancel", ds: edgeDataset()}
	cancel.ds.Months = []*mic.Monthly{{Month: 0, Records: []mic.Record{
		{Diseases: []mic.DiseaseCount{{Disease: 0, Count: 1}, {Disease: 1, Count: 1}}, Medicines: []mic.MedicineID{2}},
		{Diseases: []mic.DiseaseCount{{Disease: 1, Count: 1}}, Medicines: []mic.MedicineID{2}},
	}}}
	cancel.models = []*Model{{Phi: map[mic.DiseaseID]map[mic.MedicineID]float64{0: {2: 1}, 1: {2: -0.5}}}}
	cancel.coocs = []*Cooccurrence{{}}
	corpora = append(corpora, cancel)

	var worst float64
	for _, c := range corpora {
		ests := make([]responder, len(c.models))
		for i, m := range c.models {
			ests[i] = m
		}
		want := reproduceReference(c.ds, ests)
		if len(want.Pairs) == 0 {
			t.Fatalf("%s: reference reproduced nothing", c.name)
		}
		serial, err := Reproduce(c.ds, c.models)
		if err != nil {
			t.Fatal(err)
		}
		worst = max(worst, requireSeriesClose(t, c.name+"/model/serial", serial, want, reproduceRel))
		for _, workers := range []int{2, 3, 8, 100} {
			got, err := ReproduceParallel(c.ds, c.models, workers)
			if err != nil {
				t.Fatal(err)
			}
			requireSeriesBits(t, fmt.Sprintf("%s/model/workers=%d", c.name, workers), got, serial)
		}

		for i, m := range c.coocs {
			ests[i] = m
		}
		wantCooc := reproduceReference(c.ds, ests)
		gotCooc, err := ReproduceCooccurrence(c.ds, c.coocs)
		if err != nil {
			t.Fatal(err)
		}
		requireSeriesBits(t, c.name+"/cooccurrence", gotCooc, wantCooc)
	}
	t.Logf("largest relative difference from the reference: %.3g", worst)
}

// zeroRowMonth is twoDiseaseMonth plus disease 5, which only ever appears
// with count 0: its cooccurrence row gets mass, the first E-step gives it
// none, and the M-step zeroes it.
func zeroRowMonth() *mic.Monthly {
	m := twoDiseaseMonth()
	m.Records = append(m.Records,
		mic.Record{Diseases: []mic.DiseaseCount{{Disease: 5, Count: 0}, {Disease: 0, Count: 1}}, Medicines: []mic.MedicineID{0, 1}})
	return m
}

// negativeCountMonth has a negative count (unvalidated input), which makes
// θ negative, so some occurrences have a non-positive predictive
// probability: the likelihood clamps it, the E-step skips it.
func negativeCountMonth() *mic.Monthly {
	m := &mic.Monthly{Records: []mic.Record{
		{Diseases: []mic.DiseaseCount{{Disease: 6, Count: 2}, {Disease: 7, Count: -1}}, Medicines: []mic.MedicineID{3, 4, 5, 8}},
	}}
	for i := 0; i < 5; i++ {
		m.Records = append(m.Records,
			mic.Record{Diseases: []mic.DiseaseCount{{Disease: 7, Count: 1}}, Medicines: []mic.MedicineID{3}})
	}
	return m
}

// farIDMonth has disease and medicine ids far apart, so the spans are wide
// and mostly empty, and a record whose counts sum to a negative N_r (no θ
// slots).
func farIDMonth() *mic.Monthly {
	const far = 1 << 20
	return &mic.Monthly{Month: 9, Records: []mic.Record{
		{Diseases: []mic.DiseaseCount{{Disease: far, Count: 1}, {Disease: 3, Count: 2}}, Medicines: []mic.MedicineID{far + 7, 2}},
		{Diseases: []mic.DiseaseCount{{Disease: 3, Count: 1}}, Medicines: []mic.MedicineID{2, 2, far + 7}},
		{Diseases: []mic.DiseaseCount{{Disease: far, Count: 1}, {Disease: far, Count: 1}}, Medicines: []mic.MedicineID{5}},
		{Diseases: []mic.DiseaseCount{{Disease: 4, Count: -2}, {Disease: 3, Count: 1}}, Medicines: []mic.MedicineID{2, 6}},
		{Diseases: []mic.DiseaseCount{{Disease: 3, Count: 1}}, Medicines: []mic.MedicineID{2, far + 7}},
	}}
}

// requireIndexEqual fails unless got and want agree field for field, floats
// by their bits, and in the tiles lane for lane: the kernel leaves the lanes
// past a tile's entries as it found them. A nil slice equals an empty one:
// the reference grows its slabs from nil, the kernel resizes them.
func requireIndexEqual(t *testing.T, label string, got, want *emIndex) {
	t.Helper()
	sameInts(t, label+" diseases", got.diseases, want.diseases)
	sameInts(t, label+" rowStart", got.rowStart, want.rowStart)
	sameInts(t, label+" rowMed", got.rowMed, want.rowMed)
	sameFloatBits(t, label+" val", got.val, want.val)
	sameFloatBits(t, label+" next", got.next, want.next)
	if !slices.Equal(got.tiles, want.tiles) {
		t.Fatalf("%s tiles = %v, want %v", label, got.tiles, want.tiles)
	}
	sameInts(t, label+" cells", []int{len(got.weight), len(got.theta), len(got.pos)},
		[]int{len(want.weight), len(want.theta), len(want.pos)})
	for ti, tl := range want.tiles {
		for l := range int(tl.n) {
			e := ti*tileW + l
			sameFloatBits(t, fmt.Sprintf("%s entry %d weight", label, e), got.weight[e:e+1], want.weight[e:e+1])
			for _, c := range laneCells(tl, l) {
				sameFloatBits(t, fmt.Sprintf("%s entry %d theta", label, e), got.theta[c:c+1], want.theta[c:c+1])
				sameInts(t, fmt.Sprintf("%s entry %d pos", label, e), got.pos[c:c+1], want.pos[c:c+1])
			}
		}
	}
}

// entryWeights returns the weights of the index's entries, tile by tile in
// lane order.
func entryWeights(ix *emIndex) []float64 {
	var out []float64
	for t, tl := range ix.tiles {
		out = append(out, ix.weight[t*tileW:t*tileW+int(tl.n)]...)
	}
	return out
}

func sameInts[T ~int | ~int32](t *testing.T, label string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
}

func sameFloatBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// requirePhiBits fails unless got and want hold the same rows and entries
// with bit-identical values.
func requirePhiBits(t *testing.T, label string, got, want map[mic.DiseaseID]map[mic.MedicineID]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for d, wrow := range want {
		grow, ok := got[d]
		if !ok || len(grow) != len(wrow) {
			t.Fatalf("%s: row %d has %d entries, want %d", label, d, len(grow), len(wrow))
		}
		for m, w := range wrow {
			if g, ok := grow[m]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: φ[%d][%d] = %v, want %v", label, d, m, g, w)
			}
		}
	}
}

func TestEMKernelMatchesReference(t *testing.T) {
	var months []*mic.Monthly
	for _, cfg := range []micgen.Config{
		{Seed: 5, Months: 2, RecordsPerMonth: 400, BulkDiseases: 6, BulkMedicines: 8},
		{Seed: 23, Months: 2, RecordsPerMonth: 800, BulkDiseases: 20, BulkMedicines: 25},
		{Seed: 29, Months: 2, RecordsPerMonth: 200},
	} {
		ds, _, err := micgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		months = append(months, ds.Months...)
	}
	// The edge months repeat disease entries, carry zero-count diseases and
	// records whose counts sum to 0 (no θ slots, yet cooccurrence mass), and
	// records without diseases or without medicines.
	months = append(months, edgeDataset().Months[:3]...)
	months = append(months, twoDiseaseMonth(), zeroRowMonth(), negativeCountMonth(), farIDMonth(), tileMonth())

	check := func(label string, k *emKernel, month *mic.Monthly) {
		t.Helper()
		recs, err := usableRecords(month)
		if err != nil {
			t.Fatal(err)
		}
		want := emIndexReference(recs)
		got, err := k.build(month)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireIndexEqual(t, label, got, want)
		phi := cooccurrencePhi(recs)
		requirePhiBits(t, label+" phiMap", got.phiMap(), phi)
		requirePhiBits(t, label+" phiMap (reference index)", want.phiMap(), phi)
		// Leave the scratch as a fit would, for the next build on k.
		got.sweep()
		got.mstep()
	}
	for i, month := range months {
		check(fmt.Sprintf("month %d, fresh kernel", i), new(emKernel), month)
	}

	// One kernel reused over months of falling, then rising, size: every
	// slab shrinks into its backing array, then grows past it again.
	bySize := slices.Clone(months)
	slices.SortStableFunc(bySize, func(a, b *mic.Monthly) int { return cmp.Compare(len(b.Records), len(a.Records)) })
	var k emKernel
	for i, month := range bySize {
		check(fmt.Sprintf("falling %d", i), &k, month)
	}
	for i := len(bySize) - 1; i >= 0; i-- {
		check(fmt.Sprintf("rising %d", i), &k, bySize[i])
	}

	// A month without usable records fails as before, and leaves the kernel
	// reusable.
	bare := edgeDataset().Months[3]
	if _, err := k.build(bare); !errors.Is(err, ErrEmptyMonth) {
		t.Fatalf("bare month: %v, want ErrEmptyMonth", err)
	}
	check("after bare", &k, months[0])
}

// TestFitAllocsFlatInRecords pins the index kernel's allocation profile: a
// FitAll worker over months ten times as long allocates no more often, with
// or without the smoothed chain's prior, and their occurrence tables hold
// the same distinct entries.
func TestFitAllocsFlatInRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	scaled := func(scale int) *mic.Dataset {
		base := edgeDataset()
		ds := &mic.Dataset{Diseases: base.Diseases, Medicines: base.Medicines, Hospitals: base.Hospitals}
		for _, m := range base.Months {
			big := &mic.Monthly{Month: m.Month}
			for i := 0; i < scale; i++ {
				big.Records = append(big.Records, m.Records...)
			}
			ds.Months = append(ds.Months, big)
		}
		return ds
	}
	allocs := func(ds *mic.Dataset, opts FitOptions) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, _, err := FitAll(context.Background(), ds, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	dsOne, dsTen := scaled(1), scaled(10)
	for _, opts := range []FitOptions{{MaxIter: 5, Workers: 1}, {MaxIter: 5, PriorWeight: 5}} {
		one, ten := allocs(dsOne, opts), allocs(dsTen, opts)
		t.Logf("FitAll (PriorWeight %v) allocations: %v per call at 1x, %v at 10x", opts.PriorWeight, one, ten)
		if ten > one {
			t.Fatalf("FitAll (PriorWeight %v) allocations grow with records: %v per call at 1x, %v at 10x",
				opts.PriorWeight, one, ten)
		}
	}

	// The tenfold month repeats every occurrence ten times: the same
	// distinct entries, each ten times as heavy.
	for i, m := range dsOne.Months[:3] {
		ixOne, err := new(emKernel).build(m)
		if err != nil {
			t.Fatal(err)
		}
		ixTen, err := new(emKernel).build(dsTen.Months[i])
		if err != nil {
			t.Fatal(err)
		}
		one, ten := entryWeights(ixOne), entryWeights(ixTen)
		if len(ten) != len(one) || !slices.Equal(ixTen.tiles, ixOne.tiles) {
			t.Fatalf("month %d: %d distinct entries in tiles %v at 10x, %d in %v at 1x", i, len(ten), ixTen.tiles, len(one), ixOne.tiles)
		}
		for e, w := range one {
			if ten[e] != 10*w {
				t.Fatalf("month %d entry %d: weight %v at 10x, %v at 1x", i, e, ten[e], w)
			}
		}
	}
}

func TestFitFusedMatchesTwoSweep(t *testing.T) {
	var months []*mic.Monthly
	for _, cfg := range []micgen.Config{
		{Seed: 5, Months: 2, RecordsPerMonth: 400, BulkDiseases: 6, BulkMedicines: 8},
		{Seed: 23, Months: 1, RecordsPerMonth: 800, BulkDiseases: 20, BulkMedicines: 25},
	} {
		ds, _, err := micgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		months = append(months, ds.Months...)
	}
	zeroRow := zeroRowMonth()
	months = append(months, twoDiseaseMonth(), edgeDataset().Months[0], zeroRow, negativeCountMonth(), tileMonth())

	for mi, month := range months {
		for _, opts := range []FitOptions{
			{MaxIter: 1}, {MaxIter: 2}, {MaxIter: 3}, {}, {Tol: 1e-300, MaxIter: 40},
		} {
			opts.TraceConvergence = true
			got, err := Fit(month, 30, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fitTwoSweep(month, 30, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("month %d opts %+v: fused fit differs from the two-sweep loop (iters %d vs %d)",
					mi, opts, got.Iterations, want.Iterations)
			}
			if math.Float64bits(got.LogLik) != math.Float64bits(want.LogLik) {
				t.Fatalf("month %d opts %+v: LogLik %v, want %v", mi, opts, got.LogLik, want.LogLik)
			}
			for i := range want.LogLikTrace {
				if math.Float64bits(got.LogLikTrace[i]) != math.Float64bits(want.LogLikTrace[i]) {
					t.Fatalf("month %d opts %+v: trace[%d] %v, want %v", mi, opts, i, got.LogLikTrace[i], want.LogLikTrace[i])
				}
			}
			if month == zeroRow {
				if _, ok := got.Phi[5]; ok {
					t.Fatalf("zero-mass row survived: %v", got.Phi[5])
				}
			}
		}
	}
}

// TestWeightedSweepMatchesPerOccurrence bounds the weighted occurrence
// table's rounding, with the product-accumulated likelihood's on top:
// computing each distinct occurrence once and counting it w times, instead
// of adding log(p) and θ·φ/denom once per occurrence in record order, moves
// the fit only in its last bits. Every month must stop after the same
// number of iterations with the same φ support, every φ entry and every
// traced log-likelihood within 1e-12 relative.
func TestWeightedSweepMatchesPerOccurrence(t *testing.T) {
	months := oracleMonths(t)

	var worst float64 // the largest relative difference seen
	rel := func(a, b float64) float64 {
		if a == b {
			return 0
		}
		d := math.Abs(a-b) / max(math.Abs(a), math.Abs(b))
		worst = max(worst, d)
		return d
	}
	const tol = 1e-12
	merged := 0
	for mi, month := range months {
		ix, err := new(emKernel).build(month)
		if err != nil {
			t.Fatal(err)
		}
		weights := entryWeights(ix)
		var occs float64
		for _, w := range weights {
			occs += w
		}
		if int(occs) > len(weights) {
			merged++
		}
		for _, opts := range []FitOptions{
			{MaxIter: 1}, {MaxIter: 2}, {MaxIter: 3}, {}, {Tol: 1e-300, MaxIter: 40},
		} {
			opts.TraceConvergence = true
			got, err := Fit(month, 30, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fitPerOccurrence(month, 30, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("month %d opts %+v", mi, opts)
			if got.Iterations != want.Iterations || len(got.LogLikTrace) != len(want.LogLikTrace) {
				t.Fatalf("%s: %d iterations, per-occurrence sweep %d", label, got.Iterations, want.Iterations)
			}
			if d := rel(got.LogLik, want.LogLik); d > tol {
				t.Fatalf("%s: LogLik %v, per-occurrence %v (relative %.3g)", label, got.LogLik, want.LogLik, d)
			}
			for i, w := range want.LogLikTrace {
				if d := rel(got.LogLikTrace[i], w); d > tol {
					t.Fatalf("%s: trace[%d] %v, per-occurrence %v (relative %.3g)", label, i, got.LogLikTrace[i], w, d)
				}
			}
			if len(got.Phi) != len(want.Phi) {
				t.Fatalf("%s: %d φ rows, per-occurrence %d", label, len(got.Phi), len(want.Phi))
			}
			for d, wrow := range want.Phi {
				grow := got.Phi[d]
				if len(grow) != len(wrow) {
					t.Fatalf("%s: φ row %d has %d entries, per-occurrence %d", label, d, len(grow), len(wrow))
				}
				for m, w := range wrow {
					g, ok := grow[m]
					if dd := rel(g, w); !ok || dd > tol {
						t.Fatalf("%s: φ[%d][%d] = %v, per-occurrence %v (relative %.3g)", label, d, m, g, w, dd)
					}
				}
			}
		}
	}
	t.Logf("%d of %d months merge occurrences; largest relative difference %.3g", merged, len(months), worst)
	if merged < len(months)/2 {
		t.Fatalf("only %d of %d months merge any occurrence: the corpus does not exercise the weights", merged, len(months))
	}
}

// oracleMonths is the corpus the sweep oracles run over: generated months,
// then the edge months, which carry θ-less records (counts summing to 0 or
// below), zero-count and negative-count diseases, a row the first M-step
// empties and ids far apart, and tileMonth's full and partial tiles.
func oracleMonths(t *testing.T) []*mic.Monthly {
	t.Helper()
	var months []*mic.Monthly
	for _, cfg := range []micgen.Config{
		{Seed: 5, Months: 2, RecordsPerMonth: 400, BulkDiseases: 6, BulkMedicines: 8},
		{Seed: 23, Months: 2, RecordsPerMonth: 800, BulkDiseases: 20, BulkMedicines: 25},
		{Seed: 29, Months: 2, RecordsPerMonth: 1500},
	} {
		ds, _, err := micgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		months = append(months, ds.Months...)
	}
	months = append(months, edgeDataset().Months[:3]...)
	return append(months, twoDiseaseMonth(), zeroRowMonth(), negativeCountMonth(), farIDMonth(), tileMonth())
}

// tileMonth holds exactly tileW distinct occurrences of two θ slots (one
// full tile) and tileW+1 of three (a full tile and a partial one): each
// record's counts differ from every other's, so no two records share θ.
// Repeats of the first records add weight without adding entries, and a
// single-slot record opens a tile between them.
func tileMonth() *mic.Monthly {
	dc := func(counts ...int) []mic.DiseaseCount {
		out := make([]mic.DiseaseCount, len(counts))
		for d, n := range counts {
			out[d] = mic.DiseaseCount{Disease: mic.DiseaseID(d), Count: n}
		}
		return out
	}
	m := &mic.Monthly{Month: 5}
	for i := range tileW + 1 {
		if i < tileW {
			m.Records = append(m.Records, mic.Record{Diseases: dc(1, i+1), Medicines: []mic.MedicineID{0}})
		}
		m.Records = append(m.Records, mic.Record{Diseases: dc(1, 1, i+1), Medicines: []mic.MedicineID{1}})
		if i == 3 {
			m.Records = append(m.Records, mic.Record{Diseases: []mic.DiseaseCount{{Disease: 2, Count: 3}}, Medicines: []mic.MedicineID{0, 1}})
		}
	}
	m.Records = append(m.Records, mic.Record{Diseases: dc(1, 1), Medicines: []mic.MedicineID{0, 0}},
		mic.Record{Diseases: dc(1, 1, 1), Medicines: []mic.MedicineID{1}})
	return m
}

// relDiff is |a − b| relative to the larger magnitude: 0 when a == b, and
// +Inf when either is NaN.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.Inf(1)
	}
	return math.Abs(a-b) / max(math.Abs(a), math.Abs(b))
}

// requireOracleFits fits every month with the kernel and with oracle,
// plainly and under MAP priors of weight 0.5, 5 and 50 (each month's prior
// the oracle's previous posterior), under MaxIter 1 and 3, the defaults and
// a tolerance of 1e-10. Both fits must stop after the same number of
// iterations with the same φ support, every φ entry and traced
// log-likelihood within 1e-12 relative. It returns the largest relative
// difference.
func requireOracleFits(t *testing.T, oracleName string, months []*mic.Monthly,
	oracle func(*mic.Monthly, int, FitOptions, *Model, float64) (*Model, error)) float64 {
	t.Helper()
	const tol = 1e-12
	var worst float64
	for _, w := range []float64{0, 0.5, 5, 50} {
		var prior *Model
		for mi, month := range months {
			var last *Model
			// A tolerance at the rounding floor (1e-300) would stop on
			// rounding noise, which no change of arithmetic keeps: 1e-10 runs
			// far past the default one instead.
			for _, opts := range []FitOptions{{MaxIter: 1}, {MaxIter: 3}, {}, {Tol: 1e-10, MaxIter: 40}} {
				opts.TraceConvergence = true
				label := fmt.Sprintf("PriorWeight %v month %d opts %+v", w, mi, opts)
				got, err := new(emKernel).fit(month, 30, opts, prior, w)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracle(month, 30, opts, prior, w)
				if err != nil {
					t.Fatal(err)
				}
				if got.Iterations != want.Iterations || len(got.LogLikTrace) != len(want.LogLikTrace) {
					t.Fatalf("%s: %d iterations, %s %d", label, got.Iterations, oracleName, want.Iterations)
				}
				for i, v := range want.LogLikTrace {
					d := relDiff(got.LogLikTrace[i], v)
					if worst = max(worst, d); d > tol {
						t.Fatalf("%s: trace[%d] %v, %s %v (relative %.3g)", label, i, got.LogLikTrace[i], oracleName, v, d)
					}
				}
				if len(got.Phi) != len(want.Phi) {
					t.Fatalf("%s: %d φ rows, %s %d", label, len(got.Phi), oracleName, len(want.Phi))
				}
				for d, wrow := range want.Phi {
					if len(got.Phi[d]) != len(wrow) {
						t.Fatalf("%s: φ row %d has %d entries, %s %d", label, d, len(got.Phi[d]), oracleName, len(wrow))
					}
					for m, v := range wrow {
						g, ok := got.Phi[d][m]
						dd := relDiff(g, v)
						if worst = max(worst, dd); !ok || dd > tol {
							t.Fatalf("%s: φ[%d][%d] = %v, %s %v (relative %.3g)", label, d, m, g, oracleName, v, dd)
						}
					}
				}
				last = want
			}
			if w > 0 {
				prior = last
			}
		}
	}
	return worst
}

// sweepEdgeCase is a month whose entry-major table an edit pushes past what
// a fit reaches.
type sweepEdgeCase struct {
	name  string
	month *mic.Monthly
	edit  func(ex *entryIndex)
}

// sweepEdgeCases is the edge battery over oracleMonths: predictive
// probabilities of 0 and below 2⁻¹⁰⁰⁰ (subnormal ones too, where w/p
// overflows, one of them between ordinary lanes of one tile), weights of 17
// and more and fractional ones, one weight shared by every entry, and a
// table of a single entry.
func sweepEdgeCases(months []*mic.Monthly) []sweepEdgeCase {
	// Edits scale whole records' θ slots, so a scaled entry's predictive
	// probability stays scaled through every M-step. θ is shared by the
	// entries of one record: each slot group is scaled once.
	scaleTheta := func(ex *entryIndex, factors ...float64) {
		seen := map[int32]bool{}
		for e := range ex.weight {
			t := ex.thetaOff[e]
			if seen[t] {
				continue
			}
			seen[t] = true
			f := factors[len(seen)%len(factors)]
			for s := range ex.cellStart[e+1] - ex.cellStart[e] {
				ex.theta[t+s] *= f
			}
		}
	}
	single := &mic.Monthly{Records: []mic.Record{
		{Diseases: []mic.DiseaseCount{{Disease: 4, Count: 1}}, Medicines: []mic.MedicineID{7, 7, 7}},
	}}
	return []sweepEdgeCase{
		{"tiny and zero probabilities", months[2], func(ex *entryIndex) {
			scaleTheta(ex, 1, 0, 0x1p-1070, 0x1p-1010, 0x1p-995, 0x1p-1000)
		}},
		{"heavy and fractional weights", months[4], func(ex *entryIndex) {
			for e := range ex.weight {
				ex.weight[e] += []float64{0, 16, 40, 1000, 0.5, 15}[e%6]
			}
		}},
		{"one weight", months[0], func(ex *entryIndex) {
			for e := range ex.weight {
				ex.weight[e] = 3
			}
		}},
		{"single entry", single, func(ex *entryIndex) { scaleTheta(ex, 0.3) }},
		// Its records have one occurrence each: the eleventh two-slot entry,
		// lane 10 of its tile, is scaled alone.
		{"overflowing lane inside a tile", tileMonth(), func(ex *entryIndex) {
			seen := 0
			for e := range ex.weight {
				lo, hi := ex.cellStart[e], ex.cellStart[e+1]
				if hi-lo != 2 {
					continue
				}
				if seen == 10 {
					for s := range hi - lo {
						ex.theta[ex.thetaOff[e]+s] *= 0x1p-1070
					}
				}
				seen++
			}
		}},
	}
}

// edgeIndexes builds c's month twice and edits each build's entry-major
// table: it returns the first laid out in tiles on its own index, and the
// second.
func edgeIndexes(t *testing.T, c sweepEdgeCase) (*emIndex, *entryIndex) {
	t.Helper()
	tiled, err := entryTable(c.month, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := entryTable(c.month, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.edit(tiled)
	c.edit(ex)
	layTiles(tiled.emIndex, tiled)
	return tiled.emIndex, ex
}

// edgeReach counts the edge conditions the tiled index's entries reach
// under its current φ into reached.
func edgeReach(ix *emIndex, reached map[string]int) {
	full := map[int32]bool{} // slot counts with a full tile
	for t, tl := range ix.tiles {
		if tl.n == tileW {
			full[tl.slots] = true
			reached["full tile"]++
		} else if full[tl.slots] {
			reached["partial tile after a full one"]++
		}
		kind := make([]string, tl.n)
		for l := range kind {
			w := ix.weight[t*tileW+l]
			var p float64
			for _, c := range laneCells(tl, l) {
				p += ix.theta[c] * ix.val[ix.pos[c]]
			}
			switch {
			case p == 0:
				kind[l] = "p = 0"
			case p > 0 && p < 0x1p-1000 && math.IsInf(w/p, 1):
				kind[l] = "p < 2⁻¹⁰⁰⁰, w/p overflows"
			case p > 0 && p < 0x1p-1000:
				kind[l] = "p < 2⁻¹⁰⁰⁰"
			}
			if kind[l] != "" {
				reached[kind[l]]++
			}
			if w > 16 {
				reached["w > 16"]++
			}
			if w != math.Trunc(w) {
				reached["fractional w"]++
			}
		}
		for l := 1; l+1 < len(kind); l++ {
			if kind[l] == "p < 2⁻¹⁰⁰⁰, w/p overflows" && kind[l-1] == "" && kind[l+1] == "" {
				reached["overflowing lane between ordinary lanes"]++
			}
		}
	}
	if len(entryWeights(ix)) == 1 {
		reached["single entry"]++
	}
}

// requireSweepsAgree runs ten sweeps and M-steps on the tiled index and on
// the oracle side by side, the oracle's φ at oracleVal, and fails unless
// every log-likelihood and φ entry agrees within 1e-12 relative. It returns
// the largest relative difference.
func requireSweepsAgree(t *testing.T, label, oracleName string, tiled *emIndex, oracle sweeper, oracleVal []float64) float64 {
	t.Helper()
	const tol = 1e-12
	var worst float64
	for it := range 10 {
		gll, wll := tiled.sweep(), oracle.sweep()
		d := relDiff(gll, wll)
		if worst = max(worst, d); d > tol {
			t.Fatalf("%s sweep %d: ll %v, %s %v (relative %.3g)", label, it, gll, oracleName, wll, d)
		}
		tiled.mstep()
		oracle.mstep()
		for i, v := range oracleVal {
			d := relDiff(tiled.val[i], v)
			if worst = max(worst, d); d > tol {
				t.Fatalf("%s M-step %d: val[%d] %v, %s %v (relative %.3g)", label, it, i, tiled.val[i], oracleName, v, d)
			}
		}
	}
	return worst
}

// TestProductLogLikMatchesSumOfLogs bounds arithmetic tag 4's rounding, the
// tiled sweep's on top, against tag 3's sweep (sumLogIndex): the likelihood
// folded into one product per small integer weight with one log each, the
// E-step spread with one reciprocal per entry, and the M-step's row sums
// taken from the counts. Plain and MAP fits must agree as
// requireOracleFits sets out, and so must the edge battery's edited tables,
// the tiled sweep on one and the tag 3 sweep on the other.
func TestProductLogLikMatchesSumOfLogs(t *testing.T) {
	months := oracleMonths(t)
	worst := requireOracleFits(t, "tag 3 sweep", months, fitSumOfLogs)
	reached := map[string]int{}
	for _, c := range sweepEdgeCases(months) {
		tiled, ex := edgeIndexes(t, c)
		edgeReach(tiled, reached)
		old := newSumLogIndex(ex)
		worst = max(worst, requireSweepsAgree(t, c.name, "tag 3 sweep", tiled, old, old.val))
	}
	t.Logf("edited indexes reach %v; largest relative difference %.3g", reached, worst)
	for _, k := range []string{"p = 0", "p < 2⁻¹⁰⁰⁰", "p < 2⁻¹⁰⁰⁰, w/p overflows", "w > 16", "fractional w", "single entry"} {
		if reached[k] == 0 {
			t.Fatalf("no edited entry has %s", k)
		}
	}
}

// TestTiledSweepMatchesEntryMajor bounds the tile layout's rounding
// against arithmetic tag 4's entry-major sweep (entryIndex.sweep): taking
// a tile's entries column by column moves the order in which the E-step
// accumulates into each φ cell and the likelihood into its products, and
// nothing else. Plain and MAP fits must agree as requireOracleFits sets
// out, over months with θ-less records, a full tile and a partial one; and
// so must the edge battery's edited tables, the tiled sweep on one and the
// tag 4 sweep on the other, with an overflowing lane between ordinary ones.
func TestTiledSweepMatchesEntryMajor(t *testing.T) {
	months := oracleMonths(t)
	worst := requireOracleFits(t, "tag 4 sweep", months, fitEntryMajor)
	reached := map[string]int{}
	ix, err := new(emKernel).build(tileMonth())
	if err != nil {
		t.Fatal(err)
	}
	edgeReach(ix, reached)
	for _, c := range sweepEdgeCases(months) {
		tiled, ex := edgeIndexes(t, c)
		edgeReach(tiled, reached)
		worst = max(worst, requireSweepsAgree(t, c.name, "tag 4 sweep", tiled, ex, ex.val))
	}
	t.Logf("indexes reach %v; largest relative difference %.3g", reached, worst)
	for _, k := range []string{"p = 0", "p < 2⁻¹⁰⁰⁰", "p < 2⁻¹⁰⁰⁰, w/p overflows", "w > 16", "fractional w", "single entry",
		"full tile", "partial tile after a full one", "overflowing lane between ordinary lanes"} {
		if reached[k] == 0 {
			t.Fatalf("no index reaches %s", k)
		}
	}
}

// TestSmoothedKernelMatchesReference bounds the MAP fit's move onto the
// kernel: FitAll's smoothed chain and the map-based loop, each fed its own
// previous posterior, must stop every month after the same number of
// iterations with the same positive-mass φ support (the map loop also keeps
// zero-valued entries), and agree on every φ entry, the final and every
// traced log-likelihood within 1e-12 relative.
func TestSmoothedKernelMatchesReference(t *testing.T) {
	type chain struct {
		name  string
		ds    *mic.Dataset
		first *Model // InitialPrior
	}
	var chains []chain
	for _, cfg := range []micgen.Config{
		{Seed: 5, Months: 12, RecordsPerMonth: 300, BulkDiseases: 6, BulkMedicines: 8},
		{Seed: 29, Months: 12, RecordsPerMonth: 200},
	} {
		ds, _, err := micgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		chains = append(chains, chain{name: fmt.Sprintf("micgen-%d", cfg.Seed), ds: ds})
	}
	// The edge chain starts from a prior with a disease (40) and pairs (0,70)
	// and (40,90) no month holds. Its months carry: a record whose counts sum
	// to 0 and pairs the next month does not cooccur (edge months); prior
	// rows of diseases the month lacks (2–4 in twoDiseaseMonth, 0, 1 and 5
	// in farIDMonth); disease 5 seen with a positive count, then only with
	// count 0, so its row gets Eq. 10 mass and no E-step mass; and ids 2²⁰
	// apart with a negative N_r record (farIDMonth).
	edge := edgeDataset()
	fiveMonth := twoDiseaseMonth()
	fiveMonth.Records = append(fiveMonth.Records,
		mic.Record{Diseases: []mic.DiseaseCount{{Disease: 5, Count: 1}}, Medicines: []mic.MedicineID{1, 2}})
	zeroRow := zeroRowMonth()
	edge.Months = []*mic.Monthly{
		edge.Months[0], twoDiseaseMonth(), fiveMonth, zeroRow, zeroRow,
		farIDMonth(), edge.Months[1], edge.Months[2],
	}
	chains = append(chains, chain{name: "edge", ds: edge, first: &Model{Phi: map[mic.DiseaseID]map[mic.MedicineID]float64{
		0:  {0: 0.5, 1: 0.25, 70: 0.25},
		40: {1: 0.25, 90: 0.75},
	}}})

	var worst float64
	rel := func(a, b float64) float64 {
		if a == b {
			return 0
		}
		d := math.Abs(a-b) / max(math.Abs(a), math.Abs(b))
		worst = max(worst, d)
		return d
	}
	const tol = 1e-12
	var priorOnly, zeroMassRows int
	for _, c := range chains {
		for _, w := range []float64{0.5, 5, 50} {
			for _, trace := range []bool{false, true} {
				opts := FitOptions{PriorWeight: w, TraceConvergence: trace, InitialPrior: c.first, Workers: 4}
				got, fails, err := FitAll(context.Background(), c.ds, opts)
				if err != nil || len(fails) != 0 {
					t.Fatalf("%s: %v %v", c.name, err, fails)
				}
				prev := c.first
				for i, month := range c.ds.Months {
					label := fmt.Sprintf("%s w=%v trace=%v month %d", c.name, w, trace, i)
					want, err := fitSmoothedReference(month, c.ds.Medicines.Len(), opts, prev, w)
					if err != nil {
						t.Fatal(err)
					}
					g := got[i]
					if g.Iterations != want.Iterations || len(g.LogLikTrace) != len(want.LogLikTrace) {
						t.Fatalf("%s: %d iterations (trace %d), map loop %d (trace %d)",
							label, g.Iterations, len(g.LogLikTrace), want.Iterations, len(want.LogLikTrace))
					}
					if d := rel(g.LogLik, want.LogLik); d > tol {
						t.Fatalf("%s: LogLik %v, map loop %v (relative %.3g)", label, g.LogLik, want.LogLik, d)
					}
					for j, v := range want.LogLikTrace {
						if d := rel(g.LogLikTrace[j], v); d > tol {
							t.Fatalf("%s: trace[%d] %v, map loop %v (relative %.3g)", label, j, g.LogLikTrace[j], v, d)
						}
					}
					rows := 0
					for d, wrow := range want.Phi {
						n := 0
						for m, v := range wrow {
							if v <= 0 {
								continue
							}
							n++
							gv, ok := g.Phi[d][m]
							if dd := rel(gv, v); !ok || dd > tol {
								t.Fatalf("%s: φ[%d][%d] = %v, map loop %v (relative %.3g)", label, d, m, gv, v, dd)
							}
						}
						if len(g.Phi[d]) != n {
							t.Fatalf("%s: φ row %d has %d entries, map loop %d with mass", label, d, len(g.Phi[d]), n)
						}
						if n > 0 {
							rows++
						}
					}
					if len(g.Phi) != rows {
						t.Fatalf("%s: %d φ rows, map loop %d with mass", label, len(g.Phi), rows)
					}
					if prev != nil {
						recs, _ := usableRecords(month)
						cooc := cooccurrencePhi(recs)
						for d, prow := range prev.Phi {
							for m := range prow {
								if _, ok := cooc[d][m]; !ok && g.Phi[d][m] > 0 {
									priorOnly++
								}
							}
						}
						if month == zeroRow && g.Phi[5] != nil {
							zeroMassRows++ // kept by its prior alone
						}
					}
					prev = want
				}
			}
		}
	}
	t.Logf("%d prior-only entries kept, %d zero-E-step-mass rows; largest relative difference %.3g", priorOnly, zeroMassRows, worst)
	if priorOnly == 0 || zeroMassRows == 0 {
		t.Fatal("the chains do not exercise prior-only pairs and zero-mass rows")
	}

	// A kernel that ran a MAP fit fits the next month plainly, bit for bit.
	var k emKernel
	months := chains[1].ds.Months
	prior, err := Fit(months[0], 30, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.fit(months[1], 30, FitOptions{}, prior, 5); err != nil {
		t.Fatal(err)
	}
	got, err := k.fit(months[2], 30, FitOptions{}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := Fit(months[2], 30, FitOptions{}); !reflect.DeepEqual(got, want) {
		t.Fatal("a plain fit after a MAP fit on one kernel differs from a fresh plain fit")
	}
}

// TestReproduceAllocsFlatInRecords pins the streaming kernel's allocation
// profile: a month ten times as long over the same catalog allocates no more.
func TestReproduceAllocsFlatInRecords(t *testing.T) {
	allocs := func(scale int) float64 {
		base := edgeDataset()
		ds := &mic.Dataset{Diseases: base.Diseases, Medicines: base.Medicines, Hospitals: base.Hospitals}
		for _, m := range base.Months {
			big := &mic.Monthly{Month: m.Month}
			for i := 0; i < scale; i++ {
				big.Records = append(big.Records, m.Records...)
			}
			ds.Months = append(ds.Months, big)
		}
		models, fails, err := FitAll(context.Background(), ds, FitOptions{MaxIter: 5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fails {
			models[f.Month] = FallbackModel(ds.Months[f.Month], ds.Medicines.Len())
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := Reproduce(ds, models); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, ten := allocs(1), allocs(10)
	if ten > one {
		t.Fatalf("Reproduce allocations grow with records: %v per call at 1x, %v at 10x", one, ten)
	}
}
