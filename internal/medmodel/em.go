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
// rows from the accumulated counts, for both fits. Tag 5 sweeps the
// occurrence table tile by tile, which changes the order in which the
// E-step accumulates into φ's cells and the likelihood into its products.
const ArithmeticTag uint64 = 5

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
// distinct occurrence (an entry) once, weighted by how many times it occurs.
//
// The table is laid out in tiles of up to tileW entries that share a slot
// count, so the sweep runs loops of one trip count over a whole tile instead
// of two loops per entry whose trip counts change from entry to entry.
type emIndex struct {
	diseases []mic.DiseaseID // interned disease ids, ascending
	rowStart []int           // row d occupies [rowStart[d], rowStart[d+1]) below
	rowMed   []mic.MedicineID
	val      []float64 // current φ iterate
	next     []float64 // Eq. 5 numerator accumulator

	// Occurrence table: tile t holds entries of tiles[t].slots θ slots in
	// lanes 0 through tiles[t].n−1, and entry e = t·tileW + lane stands for
	// weight[e] identical medicine occurrences. A tile's cells are
	// slot-major: slot s of lane l is cell tiles[t].off + s·tileW + l, whose
	// θ (Eq. 2) is theta[c] and whose pos[c] is the index into val of the
	// slot's (disease, medicine) pair. Tiles lie in the order they were
	// opened, entries in first-appearance order within their slot count, and
	// a slot count opens its next tile when its last one is full; lanes past
	// a tile's n hold nothing. A record whose counts do not sum to a positive
	// N_r has no θ slots and no entries.
	tiles  []emTile
	weight []float64
	theta  []float64
	pos    []int32

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

	// signed is set when a θ or φ value of the table may be negative (only
	// unvalidated counts or a hand-edited model hold one), and skipped
	// counts the entries the last sweep gave no E-step because their
	// predictive probability was not positive. Reproduction reads both.
	signed  bool
	skipped int
}

// tileW is the number of lanes in an occurrence-table tile. On the
// batch-records workload 32 lanes ran faster end to end than 64, and they
// pad about 1% of a month's cells where 64 pad 2%.
const tileW = 32

// emTile is one tile of the occurrence table: its first cell, its entries'
// slot count, and the number of lanes in use.
type emTile struct {
	off, slots, n int32
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

// emKernel builds a month's emIndex in scratch it keeps between months: a
// FitMonths or ReproduceMonths worker reuses one kernel across the months
// it takes, so after its largest month the index costs no allocation at
// all. Nothing in it is sized Diseases×Medicines: the disease-indexed
// scratch spans the month's disease ids, the medicine-indexed scratch its
// medicine ids, and the slabs are resized, not rebuilt.
type emKernel struct {
	ix emIndex

	// reuse is set on a kernel that may build further months after this
	// one: its slabs keep resize's headroom for them. A kernel that builds
	// one month sizes them exactly.
	reuse bool

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

	// Per slot count: pass 1's occurrence count, then pass 2's open tile
	// (-1 before its first).
	bySlots []int

	// Merge scratch: the current record's θ slots, staged in
	// first-occurrence order with each slot's disease j as ^j (the code the
	// slot's cells hold until pass 3); the first cell of each of its
	// medicine occurrences' entries; an open-addressing table of entry+1 (0
	// empty), at most half full and probed from the top bits of an entry's
	// hash; each entry's medicine; and the tile of each block of tileW
	// cells, a slot's column of a tile.
	stTheta   []float64
	stDis     []int32
	occCell   []int32
	table     []int32
	shift     uint
	entMed    []mic.MedicineID
	blockTile []int32

	// The prior's cells, sorted.
	priorCells []priorCell
}

// coocElem is one cooccurrence: one disease entry of a record with one of its
// medicine occurrences. It is the occurrence-table cell the pair resolves,
// or ^(med − mlo) for an occurrence of a record without θ slots.
type coocElem int32

// build interns the month's usable records (those with diseases and
// medicines) into the kernel's index, which stays valid until the next
// build. Field for field, it is the index the map-based construction kept as
// the test reference yields: rows in ascending disease id, each row's
// medicines ascending, φ initialized to the cooccurrence estimate (Eq. 10),
// θ accumulated per entry in record order at first-occurrence slots, and
// identical occurrences merged in first-appearance order into the tiles of
// their slot count. After a span scan, three passes over the records do the
// work: pass 1 counts the row totals and bounds the tiles, pass 2 computes
// each record's θ, merges its occurrences into the tiles and scatters each
// cooccurrence into its disease's bucket, and pass 3 turns each bucket into
// a φ row and resolves the occurrence cells that bucket's elements point
// at. Every cooccurrence goes through a bucket, merged or not, and the
// counts are exact integers, so every φ quotient is the one the map-based
// count divides out.
func (k *emKernel) build(month *mic.Monthly) (*emIndex, error) {
	ix := &k.ix
	ix.prior, ix.extra = false, ix.extra[:0] // until setPrior
	ix.signed = false
	recs, dspan, mspan, maxSlots := k.span(month)
	if recs == 0 {
		return nil, fmt.Errorf("%w (month %d)", ErrEmptyMonth, month.Month)
	}
	if len(k.slotOf) < dspan {
		k.slotOf = make([]int32, dspan)
		for i := range k.slotOf {
			k.slotOf[i] = -1
		}
	}
	k.bucket = grow(k.bucket, dspan+1, k.reuse)
	clear(k.bucket)
	k.bySlots = grow(k.bySlots, maxSlots+1, k.reuse)
	clear(k.bySlots)

	// Pass 1: row totals (one per cooccurrence, so a disease's total is
	// also its bucket size) and the tiles' bounds over the records with a
	// positive N_r: their occurrences per slot count, and their most
	// medicines. A slot count's entries fill at most one tile per tileW of
	// its occurrences.
	occs, meds := 0, 0
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
			k.bySlots[k.stampSlots(rec)] += nm
			k.clearSlots(rec)
			occs += nm
			meds = max(meds, nm)
		}
	}
	tiles, cells := 0, 0
	for slots, n := range k.bySlots {
		t := (n + tileW - 1) / tileW
		tiles += t
		cells += t * slots * tileW
		k.bySlots[slots] = -1
	}
	if cells > math.MaxInt32 {
		return nil, fmt.Errorf("medmodel: month %d has %d occurrence cells, more than the index addresses", month.Month, cells)
	}
	k.fill = grow(k.fill, dspan, k.reuse)
	for j := 0; j < dspan; j++ {
		k.bucket[j+1] += k.bucket[j]
		k.fill[j] = k.bucket[j]
	}

	// Pass 2: θ (Eq. 2), summed per entry at the record's first-occurrence
	// slots and staged for the merge, which copies them into a new entry's
	// cells; the merge; and the buckets. Every slab stays within the bounds
	// pass 1 sized.
	ix.tiles = grow(ix.tiles, tiles, k.reuse)[:0]
	ix.weight = grow(ix.weight, tiles*tileW, k.reuse)
	ix.theta = grow(ix.theta, cells, k.reuse)
	ix.pos = grow(ix.pos, cells, k.reuse)
	k.stTheta = grow(k.stTheta, maxSlots, k.reuse)
	k.stDis = grow(k.stDis, maxSlots, k.reuse)
	k.occCell = grow(k.occCell, meds, k.reuse)
	k.entMed = grow(k.entMed, tiles*tileW, k.reuse)
	k.blockTile = grow(k.blockTile, cells/tileW, k.reuse)
	tbits := bits.Len(uint(occs)) + 1
	k.table = grow(k.table, 1<<tbits, k.reuse)
	clear(k.table)
	k.shift = uint(64 - tbits)
	k.elems = grow(k.elems, k.bucket[dspan], k.reuse)
	for i := range month.Records {
		rec := &month.Records[i]
		if !usable(rec) {
			continue
		}
		slots := 0
		if n := rec.NumDiseaseMentions(); n > 0 {
			slots = k.stampSlots(rec)
			theta, dis := k.stTheta[:slots], k.stDis[:slots]
			clear(theta)
			for _, dc := range rec.Diseases {
				j := dc.Disease - k.dlo
				s := k.slotOf[j]
				dis[s] = ^int32(j) // a φ entry after pass 3
				theta[s] += float64(dc.Count) / float64(n)
				if dc.Count < 0 {
					ix.signed = true
				}
			}
			h := uint64(slots)
			for s := range theta {
				h = mixWord(mixWord(h, uint64(dis[s])), math.Float64bits(theta[s]))
			}
			for o, med := range rec.Medicines {
				k.occCell[o] = k.entry(h, slots, med)
			}
		}
		for _, dc := range rec.Diseases {
			j := dc.Disease - k.dlo
			f := k.fill[j]
			for o, med := range rec.Medicines {
				el := coocElem(^(med - k.mlo))
				if slots > 0 {
					el = coocElem(k.occCell[o] + k.slotOf[j]*tileW)
				}
				k.elems[f+o] = el
			}
			k.fill[j] = f + len(rec.Medicines)
		}
		k.clearSlots(rec)
	}
	used := 0
	if n := len(ix.tiles); n > 0 {
		used = int(ix.tiles[n-1].off + ix.tiles[n-1].slots*tileW)
	}
	ix.weight = ix.weight[:len(ix.tiles)*tileW]
	ix.theta, ix.pos = ix.theta[:used], ix.pos[:used]

	// Pass 3: rows in ascending disease id. A first sweep over the buckets
	// counts the distinct φ entries (medEntry stamping each medicine with
	// the last row that counted it), so rowMed and val are sized exactly.
	// Then each bucket's distinct medicines are gathered straight into its
	// row's rowMed range and sorted there; val is count/total (Eq. 10); and
	// every element writes the φ entry its cell resolves to (a merged
	// occurrence's cell once per occurrence, with the same entry).
	k.medCnt = grow(k.medCnt, mspan, k.reuse) // all 0 at rest
	k.medEntry = grow(k.medEntry, mspan, k.reuse)
	clear(k.medEntry)
	rows, phis := 0, 0
	for j := 0; j < dspan; j++ {
		els := k.elems[k.bucket[j]:k.bucket[j+1]]
		if len(els) > 0 {
			rows++
		}
		for _, el := range els {
			if m := k.elemMed(el); k.medEntry[m] != int32(j+1) {
				k.medEntry[m] = int32(j + 1)
				phis++
			}
		}
	}
	ix.diseases = grow(ix.diseases, rows, k.reuse)
	ix.rowStart = grow(ix.rowStart, rows+1, k.reuse) // [0] is never written: it stays 0
	ix.rowMed = grow(ix.rowMed, phis, k.reuse)
	ix.val = grow(ix.val, phis, k.reuse)
	k.rowOf = grow(k.rowOf, dspan, k.reuse)
	e, row := 0, 0
	for j := 0; j < dspan; j++ {
		els := k.elems[k.bucket[j]:k.bucket[j+1]]
		if len(els) == 0 {
			k.rowOf[j] = -1 // no cooccurrence mass: no row
			continue
		}
		start := e
		for _, el := range els {
			m := k.elemMed(el)
			if k.medCnt[m] == 0 {
				ix.rowMed[e] = k.mlo + mic.MedicineID(m)
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
			if el >= 0 {
				ix.pos[el] = k.medEntry[k.elemMed(el)]
			}
		}
		ix.diseases[row] = k.dlo + mic.DiseaseID(j)
		k.rowOf[j] = int32(row)
		row++
		ix.rowStart[row] = e
	}
	ix.next = grow(ix.next, e, k.reuse)
	clear(ix.next)
	return ix, nil
}

// grow resizes s to n, with resize's headroom when reuse is set and to
// exactly n otherwise.
func grow[T any](s []T, n int, reuse bool) []T {
	if reuse || cap(s) >= n {
		return resize(s, n)
	}
	return make([]T, n)
}

// resize returns s with length n, reusing its backing array when it fits.
// A new array gets a quarter more capacity than asked, so scratch reused
// over months that grow a little at a time is reallocated only now and then.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// elemMed returns the element's medicine id − mlo.
func (k *emKernel) elemMed(el coocElem) int32 {
	if el < 0 {
		return int32(^el)
	}
	e := k.blockTile[el/tileW]*tileW + int32(el%tileW)
	return int32(k.entMed[e] - k.mlo)
}

// entry merges one occurrence of med, whose θ slots are staged and hash to
// h, into the occurrence table and returns its entry's first cell. An entry
// with the same medicine and slots gains a unit of weight; otherwise a new
// entry of weight 1 takes the staged slots.
func (k *emKernel) entry(h uint64, slots int, med mic.MedicineID) int32 {
	h = mixWord(h, uint64(uint32(med)))
	mask := len(k.table) - 1
	for i := int(h >> k.shift); ; i = (i + 1) & mask {
		e := k.table[i] - 1
		if e < 0 {
			e = k.newEntry(slots, med)
			k.table[i] = e + 1
		} else if k.entMed[e] == med && k.sameSlots(e, slots) {
			k.ix.weight[e]++
		} else {
			continue
		}
		return k.ix.tiles[e/tileW].off + e%tileW
	}
}

// newEntry puts an entry of weight 1 for med with the staged θ slots into
// the next lane of its slot count's open tile, opening a tile after the
// last one when there is none or it is full, and returns the entry.
func (k *emKernel) newEntry(slots int, med mic.MedicineID) int32 {
	ix := &k.ix
	t := int32(k.bySlots[slots])
	if t < 0 || ix.tiles[t].n == tileW {
		var off int32
		if n := len(ix.tiles); n > 0 {
			off = ix.tiles[n-1].off + ix.tiles[n-1].slots*tileW
		}
		t = int32(len(ix.tiles))
		ix.tiles = append(ix.tiles, emTile{off: off, slots: int32(slots)})
		k.bySlots[slots] = int(t)
		for s := range slots {
			k.blockTile[int(off/tileW)+s] = t
		}
	}
	tl := &ix.tiles[t]
	e, c := t*tileW+tl.n, int(tl.off+tl.n)
	tl.n++
	for s, th := range k.stTheta[:slots] {
		ix.theta[c], ix.pos[c] = th, k.stDis[s]
		c += tileW
	}
	ix.weight[e] = 1
	k.entMed[e] = med
	return e
}

// sameSlots reports whether entry e has the staged θ slots, θ values
// compared by their bits.
func (k *emKernel) sameSlots(e int32, slots int) bool {
	ix := &k.ix
	tl := ix.tiles[e/tileW]
	if int(tl.slots) != slots {
		return false
	}
	c := int(tl.off + e%tileW)
	for s, th := range k.stTheta[:slots] {
		if math.Float64bits(ix.theta[c]) != math.Float64bits(th) || ix.pos[c] != k.stDis[s] {
			return false
		}
		c += tileW
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
// the count, the disease and medicine id spans, and a bound on a record's θ
// slots (all 0 when no record is usable).
func (k *emKernel) span(month *mic.Monthly) (recs, dspan, mspan, maxSlots int) {
	dlo, dhi := mic.DiseaseID(math.MaxInt32), mic.DiseaseID(math.MinInt32)
	mlo, mhi := mic.MedicineID(math.MaxInt32), mic.MedicineID(math.MinInt32)
	for i := range month.Records {
		rec := &month.Records[i]
		if !usable(rec) {
			continue
		}
		recs++
		maxSlots = max(maxSlots, len(rec.Diseases))
		for _, dc := range rec.Diseases {
			dlo, dhi = min(dlo, dc.Disease), max(dhi, dc.Disease)
		}
		for _, med := range rec.Medicines {
			mlo, mhi = min(mlo, med), max(mhi, med)
		}
	}
	if recs == 0 {
		return 0, 0, 0, 0
	}
	k.dlo, k.mlo = dlo, mlo
	dspan = int(dhi) - int(dlo) + 1
	return recs, dspan, int(mhi) - int(mlo) + 1, min(maxSlots, dspan)
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
// The sweep runs tile by tile, each step a loop over the tile's lanes: the
// lanes' denominators are summed column by column in slot order, then one
// lane loop takes each lane's likelihood term and r = w/p, then θ·φ·r is
// scattered into next column by column.
//
// The likelihood takes no log per entry: Σ w·log p is, per weight w, w times
// the log of the product of that weight's denominators. Each integer weight
// up to prodWeights keeps its product as a mantissa in [1, 2) and an integer
// exponent, moving the exponent bits out after every multiplication, and
// the sweep ends with one log per product. An entry of another weight or a
// denominator outside the products' range adds w·log(p) itself, p ≤ 0
// clamped to the smallest positive float. Its E-step is skipped for p ≤ 0
// (counted in skipped) and taken cell by cell where w/p overflows; either
// way its r is 0, and θ·φ·0 leaves next as it is.
func (ix *emIndex) sweep() float64 {
	clear(ix.next)
	ix.skipped = 0
	var mant [prodWeights]float64
	var exp [prodWeights]int
	for k := range mant {
		mant[k] = 1
	}
	// Weight 1's product, most of the entries', lives in locals the
	// compiler keeps in registers, and joins mant[0] at the end.
	mant1, exp1 := 1.0, 0
	var ll float64
	val, next := ix.val, ix.next
	var denom, ratio [tileW]float64
	for t, tl := range ix.tiles {
		lo, hi := int(tl.off), int(tl.off+tl.slots*tileW)
		weight := ix.weight[t*tileW : t*tileW+int(tl.n)]
		d, r := denom[:len(weight)], ratio[:len(weight)]
		clear(d)
		for c := lo; c < hi; c += tileW {
			pos := ix.pos[c : c+len(d)]
			theta := ix.theta[c : c+len(pos)]
			d := d[:len(pos)]
			for l, p := range pos {
				d[l] += theta[l] * val[p]
			}
		}
		for l, w := range weight {
			p := d[l]
			q := w / p
			inRange := math.Float64bits(p)-prodLoBits < prodSpanBits
			if w == 1 && inRange {
				b := math.Float64bits(mant1 * p)
				exp1 += int(b>>52) - 1023
				mant1 = math.Float64frombits(b&fracBits | oneBits)
			} else if k := int(w) - 1; uint(k) < prodWeights && float64(k+1) == w && inRange {
				b := math.Float64bits(mant[k] * p)
				exp[k] += int(b>>52) - 1023
				mant[k] = math.Float64frombits(b&fracBits | oneBits)
			} else {
				ll += w * math.Log(max(p, math.SmallestNonzeroFloat64))
				if p <= 0 {
					q = 0
					ix.skipped++
				} else if q > math.MaxFloat64 {
					// A subnormal p: an infinite r would turn θ·φ = 0 into NaN.
					for c := lo + l; c < hi; c += tileW {
						i := ix.pos[c]
						next[i] += ix.theta[c] * val[i] / p * w
					}
					q = 0
				}
			}
			r[l] = q
		}
		for c := lo; c < hi; c += tileW {
			pos := ix.pos[c : c+len(r)]
			theta := ix.theta[c : c+len(pos)]
			r := r[:len(pos)]
			for l, p := range pos {
				next[p] += theta[l] * val[p] * r[l]
			}
		}
	}
	mant[0], exp[0] = mant1, exp1
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
	ix.pw = grow(ix.pw, len(ix.val), k.reuse)
	clear(ix.pw)
	ix.rowPrior = grow(ix.rowPrior, len(ix.diseases), k.reuse)
	clear(ix.rowPrior)
	ix.norm = grow(ix.norm, len(ix.diseases), k.reuse)
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
// prior is the month's MAP prior when opts.PriorWeight > 0. A fitted month
// also hands back its Eq. 7 sums, read off the fit's last sweep.
func fitMonth(k *emKernel, month *mic.Monthly, vocabMedicines int, opts FitOptions, prior *Model) (m *Model, sums MonthSums, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, sums, panicked = nil, MonthSums{}, true
			err = fmt.Errorf("medmodel: month %d fit panicked: %v", month.Month, r)
			// A crash may have left the scratch mid-build (slotOf and
			// medCnt off their rest state): start the next month clean.
			*k = emKernel{reuse: k.reuse}
		}
	}()
	if err := faultpoint.Inject("medmodel/fit-month", strconv.Itoa(month.Month)); err != nil {
		return nil, MonthSums{}, false, err
	}
	if m, err = k.fit(month, vocabMedicines, opts, prior, opts.PriorWeight); err != nil {
		return nil, MonthSums{}, false, err
	}
	return m, k.sums(), false, nil
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
	models, _, fails, err := FitMonths(ctx, d, opts)
	return models, fails, err
}

// FitMonths is FitAll that also hands back each fitted month's Eq. 7 sums
// for ReproduceMonths to place. Eq. 7 is the fit's last E-step: a fit ends
// with a sweep under the φ it reports, which sums each pair's Eq. 6
// responsibilities over the month's occurrences (θ spreads an occurrence
// whose predictive probability is not positive, as in Responsibility). On
// records with positive counts they equal ReproduceMonths' sums for the
// same model bit for bit. A month that did not fit has zero sums.
func FitMonths(ctx context.Context, d *mic.Dataset, opts FitOptions) ([]*Model, []MonthSums, []MonthError, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	models := make([]*Model, d.T())
	sums := make([]MonthSums, d.T())
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
		k := emKernel{reuse: len(d.Months) > 1}
		prior := opts.InitialPrior
		return func(i int) error {
			var began time.Time // read only when spans are built
			if units != nil {
				began = time.Now()
			}
			models[i], sums[i], panicked[i], errs[i] = fitMonth(&k, d.Months[i], d.Medicines.Len(), opts, prior)
			if models[i] != nil && opts.PriorWeight > 0 {
				prior = models[i]
			}
			monthDone(i, began)
			return nil
		}
	})
	return models, sums, monthErrors(errs, panicked), err
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
