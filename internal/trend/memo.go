package trend

import (
	"math"

	"mictrend/internal/changepoint"
)

// scanMemo remembers scans by series content. Within one Analyze or Surveil
// run the scan options are fixed, so a scan's Result (and provenance) is a
// pure function of the series' Float64bits: two jobs whose series agree bit
// for bit need one scan. A hash of the bits only picks the bucket; entries
// match by exact bit comparison.
type scanMemo struct {
	buckets map[uint64][]int // series hash → entry indices
	entries []memoEntry
}

// memoEntry is one distinct series: the key of the job (or seeded leaf)
// that represents it, and its scan once that succeeded.
type memoEntry struct {
	key    SeriesKey
	series []float64
	res    changepoint.Result
	prov   *changepoint.Provenance
	ok     bool // res (and prov, under Explain) hold a successful scan
}

func newScanMemo() *scanMemo {
	return &scanMemo{buckets: make(map[uint64][]int)}
}

// claim returns the entry holding series, adding one represented by key
// when none does yet; added reports whether key became the representative.
func (m *scanMemo) claim(key SeriesKey, series []float64) (e int, added bool) {
	h := seriesHash(series)
	for _, e := range m.buckets[h] {
		if sameBits(m.entries[e].series, series) {
			return e, false
		}
	}
	m.entries = append(m.entries, memoEntry{key: key, series: series})
	e = len(m.entries) - 1
	m.buckets[h] = append(m.buckets[h], e)
	return e, true
}

// done records entry e's successful scan.
func (m *scanMemo) done(e int, res changepoint.Result, prov *changepoint.Provenance) {
	m.entries[e].res, m.entries[e].prov, m.entries[e].ok = res, prov, true
}

// seed enters a's leaf detections, in job order, so Surveil's aggregates
// and drill-downs that repeat a leaf copy its scan. The caller has checked
// that a's scans ran with the options of the scans to come (scanConfig).
// Under Explain a detection without a recorded ladder is not entered.
func (m *scanMemo) seed(a *Analysis) {
	var provs map[string]*changepoint.Provenance
	if a.scan.explain {
		provs = make(map[string]*changepoint.Provenance, len(a.SeriesProvenance))
		for _, sp := range a.SeriesProvenance {
			if sp.Scan != nil && sp.Failure == "" {
				provs[sp.Key] = sp.Scan
			}
		}
	}
	for _, dets := range [][]Detection{a.Diseases, a.Medicines, a.Prescriptions} {
		for _, det := range dets {
			var prov *changepoint.Provenance
			if provs != nil {
				if prov = provs[det.Key().String()]; prov == nil {
					continue
				}
			}
			if e, added := m.claim(det.Key(), det.Series); added {
				m.done(e, det.Result, prov)
			}
		}
	}
}

// scanConfig is what a scan's outcome depends on besides the series: the
// search method and seasonality, and whether provenance was recorded.
// Analyze stamps it on its Analysis; a hand-built Analysis leaves it unset
// and never seeds a memo.
type scanConfig struct {
	set      bool
	method   Method
	seasonal bool
	explain  bool
}

func scanConfigOf(opts Options) scanConfig {
	return scanConfig{set: true, method: opts.Method, seasonal: opts.Seasonal, explain: opts.Explain}
}

// seriesHash is an FNV-1a-style hash over the values' 64-bit words.
func seriesHash(s []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range s {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

// sameBits reports whether a and b hold the same values bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
