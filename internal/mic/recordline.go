package mic

import "math"

// Slab chunk sizes, in entries. The first chunk of a read is small so a
// one-month body does not pay for a corpus-sized slab; each later chunk
// doubles, up to slabChunk.
const (
	slabFirstChunk = 1 << 10
	slabChunk      = 1 << 16
)

// recordDecoder decodes the record lines of one JSONL read.
//
// Lines of the canonical shape Write emits —
// {"t":…,"h":…,"p":…,"d":[[…,…],…]|null,"m":[…]|null}, keys in that order,
// no whitespace inside, only whitespace after the closing brace — are parsed
// in place. Every other line goes to parseRecordLine, so encoding/json still
// decides what such a line means and which error it gets. On the lines the
// fast path accepts it yields exactly the record encoding/json yields.
//
// The records' bags are carved from slabs the decoder allocates per read:
// each record holds a full slice expression of its range (cap = len), so
// appending to one record's bag copies instead of overwriting its
// neighbour's. A slab is never grown in place; a full one is left to the
// records that point into it and a fresh chunk is started.
type recordDecoder struct {
	d         *Dataset
	months    int
	diseases  []DiseaseCount
	medicines []MedicineID
}

// decode validates one record line and appends the record to its month.
func (dec *recordDecoder) decode(line []byte) error {
	t, rec, ok := dec.parse(line)
	if !ok {
		var err error
		if t, rec, err = parseRecordLine(line); err != nil {
			return err
		}
	}
	if err := appendRecord(dec.d, dec.months, t, rec); err != nil {
		if ok {
			// The rejected record's entries are the slabs' tails.
			dec.diseases = dec.diseases[:len(dec.diseases)-len(rec.Diseases)]
			dec.medicines = dec.medicines[:len(dec.medicines)-len(rec.Medicines)]
		}
		return err
	}
	return nil
}

// parse decodes a canonical record line. ok is false for any other line, and
// then the slabs are as they were before the call.
func (dec *recordDecoder) parse(line []byte) (t int, rec Record, ok bool) {
	s := lineScanner{b: line}
	var month, h, p int32
	if !s.lit(`{"t":`) || !s.int32(&month) || !s.lit(`,"h":`) || !s.int32(&h) ||
		!s.lit(`,"p":`) || !s.int32(&p) || !s.lit(`,"d":`) {
		return 0, Record{}, false
	}
	d0 := len(dec.diseases)
	if !dec.diseaseBag(&s, &d0) {
		dec.diseases = dec.diseases[:d0]
		return 0, Record{}, false
	}
	m0 := len(dec.medicines)
	var medList bool
	if !s.lit(`,"m":`) || !dec.medicineBag(&s, &m0, &medList) || !s.lit("}") || !s.onlySpace() {
		dec.diseases, dec.medicines = dec.diseases[:d0], dec.medicines[:m0]
		return 0, Record{}, false
	}
	rec = Record{Hospital: HospitalID(h), Patient: p}
	if d1 := len(dec.diseases); d1 > d0 {
		rec.Diseases = dec.diseases[d0:d1:d1]
	}
	if medList {
		m1 := len(dec.medicines)
		rec.Medicines = dec.medicines[m0:m1:m1]
		if rec.Medicines == nil {
			rec.Medicines = []MedicineID{} // "m":[] before the first chunk
		}
	}
	return int(month), rec, true
}

// diseaseBag parses null or a list of [id,count] pairs onto the disease
// slab. *start is the index of the record's first entry, moved when a fresh
// chunk takes the entries parsed so far. An empty list leaves Diseases nil,
// as encoding/json's pairs do.
func (dec *recordDecoder) diseaseBag(s *lineScanner, start *int) bool {
	if s.lit("null") {
		return true
	}
	if !s.lit("[") {
		return false
	}
	if s.lit("]") {
		return true
	}
	for {
		var id, count int32
		if !s.lit("[") || !s.int32(&id) || !s.lit(",") || !s.int32(&count) || !s.lit("]") {
			return false
		}
		if len(dec.diseases) == cap(dec.diseases) {
			dec.diseases, *start = newChunk(dec.diseases, *start)
		}
		dec.diseases = append(dec.diseases, DiseaseCount{Disease: DiseaseID(id), Count: int(count)})
		if s.lit("]") {
			return true
		}
		if !s.lit(",") {
			return false
		}
	}
}

// medicineBag parses null or a list of ids onto the medicine slab, setting
// *list for a list (empty or not: "m":[] is an empty, non-nil bag).
func (dec *recordDecoder) medicineBag(s *lineScanner, start *int, list *bool) bool {
	if s.lit("null") {
		return true
	}
	if !s.lit("[") {
		return false
	}
	*list = true
	if s.lit("]") {
		return true
	}
	for {
		var id int32
		if !s.int32(&id) {
			return false
		}
		if len(dec.medicines) == cap(dec.medicines) {
			dec.medicines, *start = newChunk(dec.medicines, *start)
		}
		dec.medicines = append(dec.medicines, MedicineID(id))
		if s.lit("]") {
			return true
		}
		if !s.lit(",") {
			return false
		}
	}
}

// newChunk starts a fresh slab chunk holding the current record's entries
// parsed so far (slab[start:]) and returns it with the record's new start.
// The full chunk stays with the records that point into it.
func newChunk[T any](slab []T, start int) ([]T, int) {
	size := min(max(2*cap(slab), slabFirstChunk), slabChunk)
	partial := slab[start:]
	size = max(size, 2*len(partial))
	fresh := make([]T, len(partial), size)
	copy(fresh, partial)
	return fresh, 0
}

// lineScanner walks one line byte by byte.
type lineScanner struct {
	b []byte
	i int
}

// lit consumes the literal lit if the line continues with it.
func (s *lineScanner) lit(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// int32 consumes a JSON integer, -?(0|[1-9][0-9]*), that fits in an int32.
// A leading zero before another digit or an out-of-range value is refused; a
// fraction or an exponent is left unconsumed, for the caller's next literal
// to refuse.
func (s *lineScanner) int32(v *int32) bool {
	i := s.i
	neg := i < len(s.b) && s.b[i] == '-'
	if neg {
		i++
	}
	first := i
	var n int64
	for ; i < len(s.b) && s.b[i]-'0' <= 9; i++ {
		if i-first == 10 { // eleven digits overflow any int32
			return false
		}
		n = n*10 + int64(s.b[i]-'0')
	}
	if i == first || (s.b[first] == '0' && i-first > 1) {
		return false
	}
	if neg {
		n = -n
	}
	if n < math.MinInt32 || n > math.MaxInt32 {
		return false
	}
	*v, s.i = int32(n), i
	return true
}

// onlySpace reports whether the rest of the line is JSON whitespace.
func (s *lineScanner) onlySpace() bool {
	for _, c := range s.b[s.i:] {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return false
		}
	}
	return true
}
