package medmodel

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"time"

	"mictrend/internal/faultpoint"
	"mictrend/internal/mic"
	"mictrend/internal/obs"
	"mictrend/internal/par"
)

// FitOptions tunes the EM loop.
type FitOptions struct {
	// MaxIter bounds EM iterations (default 50).
	MaxIter int
	// Tol is the relative log-likelihood improvement below which EM stops
	// (default 1e-6).
	Tol float64
	// Workers bounds FitAll's concurrency across months (default
	// GOMAXPROCS). Fit itself is single-threaded.
	Workers int
	// PriorWeight, when positive, chains a Dirichlet prior across months
	// (the paper's §IX Dynamic Topic Model direction): FitAll fits months
	// serially, each month's φ carrying a prior centered at the previous
	// month's fitted distributions with this concentration (pseudo-count
	// mass per disease). The zero value disables the prior — months are
	// independent and fitted in parallel.
	PriorWeight float64
	// Observer, when non-nil, receives one obs.MonthFitted event per month
	// from FitAll, in ascending month order for any worker count, until ctx
	// is cancelled. A panicking Observer is muted for the rest of the call
	// (the panic is not reported); it never crashes a fit worker.
	Observer obs.Observer
	// Metrics, when non-nil, collects EM instrumentation: per-month
	// iteration counts and per-iteration sweep timing. Nil costs nothing on
	// the fit path.
	Metrics *obs.Registry
	// Trace, when non-nil, receives one "em/month" span per month from
	// FitAll, timed around the month's fit and emitted in ascending month
	// order for any worker count, also after ctx is cancelled; it is
	// panic-isolated like Observer. A nil Trace costs nothing.
	Trace obs.SpanObserver
	// TraceConvergence records each month's per-iteration log-likelihood in
	// Model.LogLikTrace, the EM convergence evidence the explain artifacts
	// export. Off (the default) the fit loop stores only the final value and
	// allocates no trace.
	TraceConvergence bool
	// InitialPrior seeds the smoothed chain's first month (PriorWeight > 0
	// only): FitAll centers month 0's Dirichlet prior at this model instead
	// of starting the chain cold. A checkpoint-resumed analysis passes the
	// last reused posterior here so the continued chain is bit-identical to
	// one that never stopped. Ignored when PriorWeight is zero.
	InitialPrior *Model
}

// ArithmeticTag names the floating-point arithmetic of the EM sweep. Two
// fits of the same month under the same options agree bit for bit only
// under the same tag, so checkpoint fingerprints fold it in and a store
// written under another arithmetic is refit rather than served. A change
// that moves fitted bits must change it. Tag 2 is the weighted occurrence
// sweep; the per-occurrence sweep before it was never tagged. Tag 3 runs the
// smoothed (PriorWeight > 0) chain on that sweep too; the plain fit's bits
// are those of tag 2. Tag 4 multiplies the likelihood's denominators into
// one product per small integer weight instead of taking a log per entry,
// spreads each entry's E-step with one reciprocal, and sums the M-step's
// rows from the accumulated counts, for both fits.
const ArithmeticTag uint64 = 4

// WithDefaults returns the options with the EM loop defaults filled in, the
// exact values Fit and FitAll use; exposed so checkpoint fingerprints hash
// the effective configuration rather than the zero values.
func (o FitOptions) WithDefaults() FitOptions { return o.withDefaults() }

func (o FitOptions) withDefaults() FitOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	return o
}

// emIndex is the dense-indexed (CSR-style) view of one month's usable
// records, built once per month by an emKernel so the EM iterations run as
// flat array arithmetic instead of map-of-maps lookups. Diseases of the
// month are interned to contiguous indices; φ lives in one value array
// addressed through per-disease row ranges; and every distinct medicine
// occurrence the E-step touches is resolved to its positions in that array
// ahead of time — the inner loop then performs no hashing at all.
//
// Two occurrences are identical when they have the same disease bag and the
// same medicine: the same slot count, the same interned disease and θ value
// in each slot, and so the same φ cells. Every quantity the E-step computes
// for one is then the same for the other, so the occurrence table holds each
// distinct occurrence once, in first-appearance order, weighted by how many
// times it occurs.
type emIndex struct {
	diseases []mic.DiseaseID // interned disease ids, ascending
	rowStart []int           // row d occupies [rowStart[d], rowStart[d+1]) below
	rowMed   []mic.MedicineID
	val      []float64 // current φ iterate
	next     []float64 // Eq. 5 numerator accumulator

	// Occurrence table: distinct occurrence e stands for weight[e] identical
	// medicine occurrences and owns cells [cellStart[e], cellStart[e+1]), one
	// per θ slot of its record in first-occurrence order; cell c's pos[c] is
	// the index into val of the slot's (disease, medicine) pair. Slot s's θ
	// (Eq. 2) and interned disease are theta[thetaOff[e]+s] and
	// dis[thetaOff[e]+s]: a record stores its slots once, when one of its
	// occurrences is new, and its later new occurrences share them. A record
	// whose counts do not sum to a positive N_r has no θ slots and no
	// entries.
	cellStart []int32
	thetaOff  []int32
	weight    []float64
	theta     []float64
	dis       []int32
	pos       []int32

	// The MAP prior, when prior is set: pw[i] is φ entry i's pseudo-count
	// w·φ_prev, rowPrior[r] the pseudo-counts of row r's whole prior row,
	// and norm[r] the normalizer of row r's last M-step. The prior's pairs
	// that do not cooccur this month never reach the E-step; extra keeps
	// them, ascending by disease and then medicine, for phiMap.
	prior    bool
	pw       []float64
	rowPrior []float64
	norm     []float64
	extra    []priorCell
}

// priorCell is one pair of the prior: its pseudo-count, and once kept in
// extra the index row of its disease (-1 when it has none, and then v is the
// pair's final φ).
type priorCell struct {
	d   mic.DiseaseID
	m   mic.MedicineID
	row int32
	v   float64
}

// emKernel builds a month's emIndex in scratch it keeps between months, the
// way reproKernel keeps its reproduction scratch: a FitAll worker reuses one
// kernel across the months it takes, so after its largest month the index
// costs no allocation at all. Nothing in it is sized Diseases×Medicines: the
// disease-indexed scratch spans the month's disease ids, the
// medicine-indexed scratch its medicine ids, and the slabs are resized, not
// rebuilt.
type emKernel struct {
	ix emIndex

	// Smallest disease and medicine ids of the month's usable records.
	dlo mic.DiseaseID
	mlo mic.MedicineID

	// Disease-span scratch, indexed by id − dlo.
	slotOf []int32 // θ slot in the current record; -1 outside it (the rest state)
	bucket []int   // disease dlo+j's cooccurrences are elems[bucket[j]:bucket[j+1]]
	fill   []int   // pass 2's write cursor per bucket
	rowOf  []int32 // interned row of the disease, -1 when it has none

	// Medicine-span scratch, indexed by id − mlo.
	medCnt   []int32 // cooccurrence count in the current row; 0 outside pass 3's row
	medEntry []int32 // φ entry of the medicine in the current row

	elems []coocElem

	// Merge scratch: the first cell of each of the current record's
	// medicine occurrences' entries; an open-addressing table of entry+1 (0
	// empty), at most half full and probed from the top bits of an entry's
	// hash; and each entry's medicine.
	occCell []int32
	table   []int32
	shift   uint
	entMed  []mic.MedicineID

	// The prior's cells, sorted.
	priorCells []priorCell
}

// coocElem is one cooccurrence: one disease entry of a record with one of its
// medicine occurrences.
type coocElem struct {
	med mic.MedicineID
	pos int32 // the occurrence-table cell this pair resolves, -1 when the record has no θ slots
}

// build interns the month's usable records (those with diseases and
// medicines) into the kernel's index, which stays valid until the next
// build. Field for field, it is the index the map-based construction kept as
// the test reference yields: rows in ascending disease id, each row's
// medicines ascending, φ initialized to the cooccurrence estimate (Eq. 10),
// θ accumulated per entry in record order at first-occurrence slots, and
// identical occurrences merged in first-appearance order. After a span scan,
// three passes over the records do the work: pass 1 counts the row totals
// and bounds the occurrence table, pass 2 computes each record's θ, merges
// its occurrences into the table and scatters each cooccurrence into its
// disease's bucket, and pass 3 turns each bucket into a φ row and resolves
// the occurrence cells that bucket's elements point at. Every cooccurrence
// goes through a bucket, merged or not, and the counts are exact integers,
// so every φ quotient is the one the map-based count divides out.
func (k *emKernel) build(month *mic.Monthly) (*emIndex, error) {
	ix := &k.ix
	ix.prior, ix.extra = false, ix.extra[:0] // until setPrior
	recs, dspan, mspan := k.span(month)
	if recs == 0 {
		return nil, fmt.Errorf("%w (month %d)", ErrEmptyMonth, month.Month)
	}
	if len(k.slotOf) < dspan {
		k.slotOf = make([]int32, dspan)
		for i := range k.slotOf {
			k.slotOf[i] = -1
		}
	}
	k.bucket = resize(k.bucket, dspan+1)
	clear(k.bucket)

	// Pass 1: row totals (one per cooccurrence, so a disease's total is
	// also its bucket size) and the occurrence table's bounds over the
	// records with a positive N_r: their occurrences, θ slots and cells (at
	// most one slot per disease entry), and their most medicines.
	occs, slots, cells, meds := 0, 0, 0, 0
	for i := range month.Records {
		rec := &month.Records[i]
		if !usable(rec) {
			continue
		}
		nm := len(rec.Medicines)
		n := 0
		for _, dc := range rec.Diseases {
			n += dc.Count
			k.bucket[dc.Disease-k.dlo+1] += nm
		}
		if n > 0 {
			occs += nm
			slots += len(rec.Diseases)
			cells += len(rec.Diseases) * nm
			meds = max(meds, nm)
		}
	}
	if cells > math.MaxInt32 {
		return nil, fmt.Errorf("medmodel: month %d has %d occurrence cells, more than the index addresses", month.Month, cells)
	}
	k.fill = resize(k.fill, dspan)
	for j := 0; j < dspan; j++ {
		k.bucket[j+1] += k.bucket[j]
		k.fill[j] = k.bucket[j]
	}

	// Pass 2: θ (Eq. 2), summed per entry at the record's first-occurrence
	// slots, staged just past the stored slots and kept when the merge
	// appends an entry for them; the merge; and the buckets. Every slab is
	// appended within the bounds pass 1 sized.
	ix.cellStart = append(resize(ix.cellStart, occs+1)[:0], 0)
	ix.thetaOff = resize(ix.thetaOff, occs)[:0]
	ix.weight = resize(ix.weight, occs)[:0]
	ix.theta = resize(ix.theta, slots)[:0]
	ix.dis = resize(ix.dis, slots)[:0]
	ix.pos = resize(ix.pos, cells)
	k.occCell = resize(k.occCell, meds)
	k.entMed = resize(k.entMed, occs)
	tbits := bits.Len(uint(occs)) + 1
	k.table = resize(k.table, 1<<tbits)
	clear(k.table)
	k.shift = uint(64 - tbits)
	k.elems = resize(k.elems, k.bucket[dspan])
	for i := range month.Records {
		rec := &month.Records[i]
		if !usable(rec) {
			continue
		}
		slots := 0
		if n := rec.NumDiseaseMentions(); n > 0 {
			slots = k.stampSlots(rec)
			top, ents := len(ix.theta), len(ix.weight)
			theta, dis := ix.theta[top:top+slots], ix.dis[top:top+slots]
			clear(theta)
			for _, dc := range rec.Diseases {
				j := dc.Disease - k.dlo
				s := k.slotOf[j]
				dis[s] = int32(j) // interned after pass 3
				theta[s] += float64(dc.Count) / float64(n)
			}
			h := uint64(slots)
			for s := range theta {
				h = mixWord(mixWord(h, uint64(dis[s])), math.Float64bits(theta[s]))
			}
			for o, med := range rec.Medicines {
				k.occCell[o] = k.entry(h, top, slots, med)
			}
			if len(ix.weight) > ents {
				ix.theta, ix.dis = ix.theta[:top+slots], ix.dis[:top+slots]
			}
		}
		for _, dc := range rec.Diseases {
			j := dc.Disease - k.dlo
			f := k.fill[j]
			for o, med := range rec.Medicines {
				p := int32(-1)
				if slots > 0 {
					p = k.occCell[o] + k.slotOf[j]
				}
				k.elems[f+o] = coocElem{med: med, pos: p}
			}
			k.fill[j] = f + len(rec.Medicines)
		}
		k.clearSlots(rec)
	}
	ix.pos = ix.pos[:ix.cellStart[len(ix.weight)]]

	// Pass 3: rows in ascending disease id. A first sweep over the buckets
	// counts the distinct φ entries (medEntry stamping each medicine with
	// the last row that counted it), so rowMed and val are sized exactly.
	// Then each bucket's distinct medicines are gathered straight into its
	// row's rowMed range and sorted there; val is count/total (Eq. 10); and
	// every element writes the φ entry its occurrence cell resolves to (a
	// merged occurrence's cell once per occurrence, with the same entry).
	k.medCnt = resize(k.medCnt, mspan) // all 0 at rest
	k.medEntry = resize(k.medEntry, mspan)
	clear(k.medEntry)
	rows, phis := 0, 0
	for j := 0; j < dspan; j++ {
		els := k.elems[k.bucket[j]:k.bucket[j+1]]
		if len(els) > 0 {
			rows++
		}
		for _, el := range els {
			if m := el.med - k.mlo; k.medEntry[m] != int32(j+1) {
				k.medEntry[m] = int32(j + 1)
				phis++
			}
		}
	}
	ix.diseases = resize(ix.diseases, rows)
	ix.rowStart = resize(ix.rowStart, rows+1) // [0] is never written: it stays 0
	ix.rowMed = resize(ix.rowMed, phis)
	ix.val = resize(ix.val, phis)
	k.rowOf = resize(k.rowOf, dspan)
	e, row := 0, 0
	for j := 0; j < dspan; j++ {
		els := k.elems[k.bucket[j]:k.bucket[j+1]]
		if len(els) == 0 {
			k.rowOf[j] = -1 // no cooccurrence mass: no row
			continue
		}
		start := e
		for _, el := range els {
			m := el.med - k.mlo
			if k.medCnt[m] == 0 {
				ix.rowMed[e] = el.med
				e++
			}
			k.medCnt[m]++
		}
		meds := ix.rowMed[start:e]
		slices.Sort(meds)
		sum := float64(len(els))
		for i, med := range meds {
			m := med - k.mlo
			ix.val[start+i] = float64(k.medCnt[m]) / sum
			k.medEntry[m] = int32(start + i)
			k.medCnt[m] = 0
		}
		for _, el := range els {
			if el.pos >= 0 {
				ix.pos[el.pos] = k.medEntry[el.med-k.mlo]
			}
		}
		ix.diseases[row] = k.dlo + mic.DiseaseID(j)
		k.rowOf[j] = int32(row)
		row++
		ix.rowStart[row] = e
	}
	for s, j := range ix.dis {
		ix.dis[s] = k.rowOf[j]
	}
	ix.next = resize(ix.next, e)
	clear(ix.next)
	return ix, nil
}

// entry merges one occurrence of med into the occurrence table and returns
// the first cell of its entry. The occurrence's θ slots are staged at
// theta[top:top+slots] and dis[top:top+slots], just past the stored slots,
// and h is their hash. An entry with the same medicine and slots gains a
// unit of weight; otherwise an entry of weight 1 is appended, pointing at
// the staged slots.
func (k *emKernel) entry(h uint64, top, slots int, med mic.MedicineID) int32 {
	ix := &k.ix
	h = mixWord(h, uint64(uint32(med)))
	mask := len(k.table) - 1
	for i := int(h >> k.shift); ; i = (i + 1) & mask {
		e := int(k.table[i]) - 1
		if e < 0 {
			e = len(ix.weight)
			k.table[i] = int32(e + 1)
			k.entMed[e] = med
			ix.weight = append(ix.weight, 1)
			ix.thetaOff = append(ix.thetaOff, int32(top))
			ix.cellStart = append(ix.cellStart, ix.cellStart[e]+int32(slots))
			return ix.cellStart[e]
		}
		if k.entMed[e] == med && k.sameSlots(e, top, slots) {
			ix.weight[e]++
			return ix.cellStart[e]
		}
	}
}

// sameSlots reports whether entry e has the θ slots staged at top, θ values
// compared by their bits.
func (k *emKernel) sameSlots(e, top, slots int) bool {
	ix := &k.ix
	if int(ix.cellStart[e+1]-ix.cellStart[e]) != slots {
		return false
	}
	// Both ranges may lie past the stored slots, within capacity: slice,
	// don't index.
	off := int(ix.thetaOff[e])
	theta, dis := ix.theta[top:top+slots], ix.dis[top:top+slots]
	etheta, edis := ix.theta[off:off+slots], ix.dis[off:off+slots]
	for s, th := range etheta {
		if math.Float64bits(th) != math.Float64bits(theta[s]) || edis[s] != dis[s] {
			return false
		}
	}
	return true
}

// mixWord folds one word into a multiply-xorshift hash, whose top bits
// depend on every bit of every word folded in.
func mixWord(h, w uint64) uint64 {
	h = (h ^ w) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// span counts the month's usable records and sets the id bases, returning
// the count and the disease and medicine id spans (0 when no record is
// usable).
func (k *emKernel) span(month *mic.Monthly) (recs, dspan, mspan int) {
	dlo, dhi := mic.DiseaseID(math.MaxInt32), mic.DiseaseID(math.MinInt32)
	mlo, mhi := mic.MedicineID(math.MaxInt32), mic.MedicineID(math.MinInt32)
	for i := range month.Records {
		rec := &month.Records[i]
		if !usable(rec) {
			continue
		}
		recs++
		for _, dc := range rec.Diseases {
			dlo, dhi = min(dlo, dc.Disease), max(dhi, dc.Disease)
		}
		for _, med := range rec.Medicines {
			mlo, mhi = min(mlo, med), max(mhi, med)
		}
	}
	if recs == 0 {
		return 0, 0, 0
	}
	k.dlo, k.mlo = dlo, mlo
	return recs, int(dhi) - int(dlo) + 1, int(mhi) - int(mlo) + 1
}

// stampSlots numbers the record's distinct diseases in first-occurrence
// order into slotOf and returns how many there are.
func (k *emKernel) stampSlots(rec *mic.Record) int {
	slots := 0
	for _, dc := range rec.Diseases {
		if j := dc.Disease - k.dlo; k.slotOf[j] < 0 {
			k.slotOf[j] = int32(slots)
			slots++
		}
	}
	return slots
}

// clearSlots returns slotOf to its rest state after a record.
func (k *emKernel) clearSlots(rec *mic.Record) {
	for _, dc := range rec.Diseases {
		k.slotOf[dc.Disease-k.dlo] = -1
	}
}

// prodWeights bounds the weights whose likelihood terms sweep multiplies
// into products: integer weights 1 through prodWeights, which hold nearly
// every entry of a month's table.
const prodWeights = 16

// A denominator folds into a product when it lies in [2⁻¹⁰⁰⁰, 2¹⁰⁰⁰): a
// product's mantissa, kept in [1, 2), times such a denominator is normal
// and finite. In bits, that is when Float64bits(denom) − prodLoBits is below
// prodSpanBits; zero, negative and NaN denominators wrap past it.
const (
	prodLoBits   = (1023 - 1000) << 52 // Float64bits(0x1p-1000)
	prodSpanBits = 2000 << 52          // up to Float64bits(0x1p1000)
	fracBits     = 1<<52 - 1
	oneBits      = 1023 << 52 // Float64bits(1)
)

// sweep is one fused pass over the occurrence table under the current φ
// iterate φ_k. It returns ll(φ_k), the Φ part of Eq. 3, and accumulates the
// E-step of Eqs. 5–6 under φ_k into next: each medicine occurrence is
// distributed across its record's diseases proportionally to θ_rd·φ_dm. An
// occurrence's E-step denominator is, term for term and in the same slot
// order, the predictive probability the likelihood sums, so one pass yields
// both. Each distinct occurrence is computed once and counts weight times:
// w·log(p) to the likelihood and θ·φ·(w/p) to each cell.
//
// The likelihood takes no log per entry: Σ w·log p is, per weight w, w times
// the log of the product of that weight's denominators. Each integer weight
// up to prodWeights keeps its product as a mantissa in [1, 2) and an integer
// exponent, moving the exponent bits out after every multiplication, and
// the sweep ends with one log per product. An entry of another weight or a
// denominator outside the products' range adds w·log(p) itself, p ≤ 0
// clamped to the smallest positive float; its E-step skips p ≤ 0 and
// divides cell by cell where w/p overflows.
func (ix *emIndex) sweep() float64 {
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
				// A subnormal p: an infinite r would turn θ·φ = 0 into NaN.
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

// mstep renormalizes the accumulated E-step into the next φ iterate
// (Eq. 5), each row by the sum of its accumulated counts. Under a prior the
// MAP step first adds the pseudo-counts w·φ_prev to the expected counts.
func (ix *emIndex) mstep() {
	for d := range ix.diseases {
		lo, hi := ix.rowStart[d], ix.rowStart[d+1]
		next := ix.next[lo:hi]
		var sum float64
		for _, v := range next {
			sum += v
		}
		if ix.prior {
			sum += ix.rowPrior[d]
			ix.norm[d] = sum
			for i, pw := range ix.pw[lo:hi] {
				next[i] += pw
			}
		}
		val := ix.val[lo:hi]
		if sum <= 0 {
			// The row lost all mass: zero it, the dense-index equivalent of
			// deleting the map row (lookups read 0 either way).
			clear(val)
			continue
		}
		for i, v := range next {
			val[i] = v / sum
		}
	}
}

// phiMap converts the dense rows back to the public map representation,
// dropping rows and entries that carry no mass (mirroring the sparsity the
// map-based accumulation produced). Under a prior it adds the prior's pairs
// outside the cooccurrences: in a row, the pseudo-count over the row's last
// normalizer; for a disease without a row, the value setPrior fixed.
func (ix *emIndex) phiMap() map[mic.DiseaseID]map[mic.MedicineID]float64 {
	out := make(map[mic.DiseaseID]map[mic.MedicineID]float64, len(ix.diseases))
	for di, d := range ix.diseases {
		lo, hi := ix.rowStart[di], ix.rowStart[di+1]
		var row map[mic.MedicineID]float64
		for i := lo; i < hi; i++ {
			if ix.val[i] <= 0 {
				continue
			}
			if row == nil {
				row = make(map[mic.MedicineID]float64, hi-lo)
			}
			row[ix.rowMed[i]] = ix.val[i]
		}
		if row != nil {
			out[d] = row
		}
	}
	for _, c := range ix.extra {
		v := c.v
		if c.row >= 0 {
			v /= ix.norm[c.row]
		}
		if !(v > 0) { // no mass, or 0/0 in a row without any
			continue
		}
		row := out[c.d]
		if row == nil {
			row = make(map[mic.MedicineID]float64)
			out[c.d] = row
		}
		row[c.m] = v
	}
	return out
}

// setPrior centers a Dirichlet prior of concentration w at prior's φ on the
// built index, unless prior is nil or w ≤ 0: w·φ_prev[d][m] become
// pseudo-counts, and every row the prior holds starts from its
// Eq. 10 estimate plus them, renormalized. The E-step never reads a disease
// without a row, so its prior row, renormalized, is final at once. The
// prior's cells are visited in ascending (disease, medicine) order, so every
// sum over them is bit-deterministic.
func (k *emKernel) setPrior(prior *Model, w float64) {
	if prior == nil || w <= 0 {
		return
	}
	ix := &k.ix
	ix.prior = true
	ix.pw = resize(ix.pw, len(ix.val))
	clear(ix.pw)
	ix.rowPrior = resize(ix.rowPrior, len(ix.diseases))
	clear(ix.rowPrior)
	ix.norm = resize(ix.norm, len(ix.diseases))
	cells := k.priorCells[:0]
	for d, prow := range prior.Phi {
		for m, v := range prow {
			cells = append(cells, priorCell{d: d, m: m, v: w * v})
		}
	}
	slices.SortFunc(cells, func(a, b priorCell) int { return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.m, b.m)) })
	k.priorCells = cells
	for c := 0; c < len(cells); {
		d, row := cells[c].d, int32(-1)
		if j := int(d) - int(k.dlo); j >= 0 && j < len(k.rowOf) {
			row = k.rowOf[j]
		}
		lo, hi := 0, 0
		if row >= 0 {
			lo, hi = ix.rowStart[row], ix.rowStart[row+1]
		}
		// Merge the prior row into the index row, both ascending by
		// medicine.
		first, i := len(ix.extra), lo
		var mass, outside float64
		for ; c < len(cells) && cells[c].d == d; c++ {
			cell := cells[c]
			mass += cell.v
			for i < hi && ix.rowMed[i] < cell.m {
				i++
			}
			if i < hi && ix.rowMed[i] == cell.m {
				ix.pw[i] = cell.v
				continue
			}
			cell.row = row
			ix.extra = append(ix.extra, cell)
			outside += cell.v
		}
		if row < 0 {
			for e := first; e < len(ix.extra); e++ {
				ix.extra[e].v /= mass
			}
			continue
		}
		ix.rowPrior[row] = mass
		sum := outside
		for i := lo; i < hi; i++ {
			ix.val[i] += ix.pw[i]
			sum += ix.val[i]
		}
		if sum > 0 {
			for i := lo; i < hi; i++ {
				ix.val[i] /= sum
			}
		}
	}
}

// Fit estimates the latent-variable medication model for one month with the
// EM algorithm of §IV-C: θ is closed-form (Eq. 2), η is closed-form (Eq. 4),
// and Φ alternates with the responsibilities Q via Eqs. 5–6, starting from
// the cooccurrence estimate (which also fixes Φ's support: a (d, m) pair can
// only carry probability if it cooccurs in some record). The E/M sweep runs
// over a dense index interned once per call, so iterations are flat array
// arithmetic, and one fused pass per iteration yields both the likelihood and
// the next E-step; the fitted Φ is converted back to the map representation
// the Model API exposes. Results are deterministic.
func Fit(month *mic.Monthly, vocabMedicines int, opts FitOptions) (*Model, error) {
	return new(emKernel).fit(month, vocabMedicines, opts, nil, 0)
}

// fit is Fit on the kernel's reusable index, or with a prior and a w > 0
// FitSmoothed's MAP fit.
func (k *emKernel) fit(month *mic.Monthly, vocabMedicines int, opts FitOptions, prior *Model, w float64) (*Model, error) {
	opts = opts.withDefaults()
	ix, err := k.build(month)
	if err != nil {
		return nil, err
	}
	k.setPrior(prior, w)
	model := &Model{
		Eta: EstimateEta(month),
		M:   vocabMedicines,
	}

	// The timer resolves to nil when metrics are off, so the disabled loop
	// pays one pointer check per iteration, reads no clock and allocates
	// nothing.
	var tIterate *obs.Timer
	var t0 time.Time
	if m := opts.Metrics; m != nil {
		tIterate = m.Timer("time/em/iterate")
		t0 = time.Now()
	}

	// Iteration k applies the M-step accumulated under φ_{k-1} and sweeps
	// once under φ_k for both ll(φ_k) and the next E-step: K iterations cost
	// K+1 sweeps. The priming sweep's E-step is under the cooccurrence
	// start φ_0, whose likelihood is not reported; the first iteration's
	// timing includes it.
	ix.sweep()
	prevLL := math.Inf(-1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		ix.mstep()
		ll := ix.sweep()
		if tIterate != nil {
			now := time.Now()
			tIterate.Observe(now.Sub(t0))
			t0 = now
		}
		model.Iterations = iter + 1
		model.LogLik = ll
		if opts.TraceConvergence {
			model.LogLikTrace = append(model.LogLikTrace, ll)
		}
		if prevLL != math.Inf(-1) {
			denom := math.Abs(prevLL)
			if denom == 0 {
				denom = 1
			}
			if (ll-prevLL)/denom < opts.Tol {
				break
			}
		}
		prevLL = ll
	}
	model.Phi = ix.phiMap()
	return model, nil
}

// MonthError records one month whose EM fit failed. FitAll reports failed
// months instead of aborting, so a run over many months degrades to the
// months that did fit.
type MonthError struct {
	// Month is the index of the failed month.
	Month int
	// Err is the fit error (for a crashed worker, the recovered panic value).
	Err error
	// Panicked reports whether the failure was a recovered worker panic
	// rather than a returned error.
	Panicked bool
}

// fitMonth fits one month on k with panic isolation: a crash inside the EM
// loop becomes an error confined to that month instead of a process abort.
// prior is the month's MAP prior when opts.PriorWeight > 0.
func fitMonth(k *emKernel, month *mic.Monthly, vocabMedicines int, opts FitOptions, prior *Model) (m *Model, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, panicked = nil, true
			err = fmt.Errorf("medmodel: month %d fit panicked: %v", month.Month, r)
			// A crash may have left the scratch mid-build (slotOf and
			// medCnt off their rest state): start the next month clean.
			*k = emKernel{}
		}
	}()
	if err := faultpoint.Inject("medmodel/fit-month", strconv.Itoa(month.Month)); err != nil {
		return nil, false, err
	}
	m, err = k.fit(month, vocabMedicines, opts, prior, opts.PriorWeight)
	return m, false, err
}

// FitAll fits one model per month of the dataset. With a zero
// opts.PriorWeight months are independent and fitted concurrently by a
// bounded pool of opts.Workers goroutines (default GOMAXPROCS); the models
// are identical to those of a serial month-by-month loop. A positive
// PriorWeight chains the months, each month's prior centered at the last
// fitted posterior (opts.InitialPrior before the first), so they are fitted
// in order on the calling goroutine, as are all months with one worker.
//
// FitAll degrades rather than failing atomically: a month whose fit errors
// or panics leaves a nil entry in the returned slice and a MonthError
// (ascending by month), while every other month's model is still produced;
// the chain continues from the last month that did fit. The error return is
// reserved for cancellation — when ctx is cancelled the already-fitted
// models are returned alongside ctx's error, and no new month fits start.
func FitAll(ctx context.Context, d *mic.Dataset, opts FitOptions) ([]*Model, []MonthError, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	models := make([]*Model, d.T())
	errs := make([]error, len(d.Months))
	panicked := make([]bool, len(d.Months))
	// Each month reports its metrics (exact integer adds, so any completion
	// order gives the same snapshot) and, with a sink, its em/month span,
	// which the batch delivers in month order and derives MonthFitted from.
	units := obs.NewSink(ctx, opts.Observer, opts.Trace, nil).Batch(len(d.Months))
	reg := opts.Metrics
	mFitted, mIters := reg.Counter("em/months_fitted"), reg.Counter("em/iterations")
	var hIters *obs.Histogram
	if reg != nil {
		hIters = reg.Histogram("em/iterations_per_month", 1, 2, 5, 10, 20, 50)
	}
	monthDone := func(i int, began time.Time) {
		if m := models[i]; m != nil {
			mFitted.Inc()
			mIters.Add(int64(m.Iterations))
			hIters.Observe(float64(m.Iterations))
		}
		if units == nil {
			return
		}
		sp := obs.SpanEvent{Cat: "em", Name: "em/month", TID: obs.LaneEM, Start: began, Duration: time.Since(began), Month: i}
		if models[i] != nil {
			sp.Detail = "iters=" + strconv.Itoa(models[i].Iterations)
		}
		if errs[i] != nil {
			sp.Err = errs[i].Error()
		}
		units.Done(i, sp)
	}
	workers := opts.Workers
	if opts.PriorWeight > 0 {
		workers = 1
	}
	// Each worker reuses one kernel's index scratch across the months it
	// takes. With PriorWeight > 0 the lone worker takes them in order and
	// threads each fitted posterior into the next month's fit as its prior.
	// Fit failures stay in errs, so only a cancel stops the pool.
	err := par.Each(ctx, len(d.Months), workers, func() func(int) error {
		var k emKernel
		prior := opts.InitialPrior
		return func(i int) error {
			var began time.Time // read only when spans are built
			if units != nil {
				began = time.Now()
			}
			models[i], panicked[i], errs[i] = fitMonth(&k, d.Months[i], d.Medicines.Len(), opts, prior)
			if models[i] != nil && opts.PriorWeight > 0 {
				prior = models[i]
			}
			monthDone(i, began)
			return nil
		}
	})
	return models, monthErrors(errs, panicked), err
}

// monthErrors collects the per-month failures in month order.
func monthErrors(errs []error, panicked []bool) []MonthError {
	var out []MonthError
	for i, err := range errs {
		if err != nil {
			out = append(out, MonthError{Month: i, Err: err, Panicked: panicked[i]})
		}
	}
	return out
}

// FallbackModel builds the cooccurrence-initialized medication model without
// running EM — the degradation target when a month's EM fit fails or
// crashes. It is the exact model EM starts from (Eq. 10 support and
// estimate), so downstream series reproduction stays well-defined, just
// without the latent-variable refinement. A month with no usable records
// yields a model with an empty Φ, whose responsibilities fall back to θ.
func FallbackModel(month *mic.Monthly, vocabMedicines int) *Model {
	model := &Model{Eta: EstimateEta(month), M: vocabMedicines}
	if phi, err := cooccurrence(month); err == nil {
		model.Phi = phi
	}
	return model
}

// cooccurrence computes the Eq. 10 estimate used both as the Cooccurrence
// baseline and as EM initialization: the φ of a freshly built index.
// Cooc_r(d, m) counts each occurrence of medicine m in a record once per
// disease entry of the record.
func cooccurrence(month *mic.Monthly) (map[mic.DiseaseID]map[mic.MedicineID]float64, error) {
	ix, err := new(emKernel).build(month)
	if err != nil {
		return nil, err
	}
	return ix.phiMap(), nil
}
