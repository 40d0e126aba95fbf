package mic

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// filterMonthlyReference is the map-based filter: frequencies from
// DiseaseFrequencies/MedicineFrequencies, each kept record's bags appended
// from nil. FilterMonthly must produce exactly its output.
func filterMonthlyReference(month *Monthly, opts FilterOptions) *Monthly {
	diseaseFreq := month.DiseaseFrequencies()
	medFreq := month.MedicineFrequencies()
	out := &Monthly{Month: month.Month}
	for i := range month.Records {
		r := &month.Records[i]
		nr := Record{Hospital: r.Hospital, Patient: r.Patient}
		for _, dc := range r.Diseases {
			if diseaseFreq[dc.Disease] >= opts.MinMonthlyFreq {
				nr.Diseases = append(nr.Diseases, dc)
			}
		}
		for _, med := range r.Medicines {
			if medFreq[med] >= opts.MinMonthlyFreq {
				nr.Medicines = append(nr.Medicines, med)
			}
		}
		if len(nr.Diseases) > 0 && len(nr.Medicines) > 0 {
			out.Records = append(out.Records, nr)
		}
	}
	return out
}

// randomMonth draws a month over small id ranges (including negative ids and
// zero or negative counts, which only unvalidated input carries) so that
// thresholds both keep and drop entries and whole records.
func randomMonth(rng *rand.Rand, records int) *Monthly {
	m := &Monthly{Month: rng.IntN(5)}
	for i := 0; i < records; i++ {
		r := Record{Hospital: HospitalID(rng.IntN(3)), Patient: int32(rng.IntN(50)) - 1}
		for j := rng.IntN(4); j > 0; j-- {
			r.Diseases = append(r.Diseases, DiseaseCount{
				Disease: DiseaseID(rng.IntN(12) - 2), Count: rng.IntN(4) - 1,
			})
		}
		for j := rng.IntN(5); j > 0; j-- {
			r.Medicines = append(r.Medicines, MedicineID(rng.IntN(15)-3))
		}
		m.Records = append(m.Records, r)
	}
	return m
}

// commonMonth draws distinct records with non-empty bags and positive
// counts, then repeats each one copies times in a shuffled order, so every
// id the month uses has a frequency of at least copies.
func commonMonth(rng *rand.Rand, distinct, copies int) *Monthly {
	base := make([]Record, distinct)
	for i := range base {
		r := Record{Hospital: HospitalID(rng.IntN(3)), Patient: int32(rng.IntN(50))}
		for j := 1 + rng.IntN(3); j > 0; j-- {
			r.Diseases = append(r.Diseases, DiseaseCount{Disease: DiseaseID(rng.IntN(12)), Count: 1 + rng.IntN(3)})
		}
		for j := 1 + rng.IntN(4); j > 0; j-- {
			r.Medicines = append(r.Medicines, MedicineID(rng.IntN(15)))
		}
		base[i] = r
	}
	m := &Monthly{Month: rng.IntN(5)}
	for c := 0; c < copies; c++ {
		for _, r := range base {
			r.Diseases = append([]DiseaseCount(nil), r.Diseases...)
			r.Medicines = append([]MedicineID(nil), r.Medicines...)
			m.Records = append(m.Records, r)
		}
	}
	rng.Shuffle(len(m.Records), func(i, j int) { m.Records[i], m.Records[j] = m.Records[j], m.Records[i] })
	return m
}

// touchFew changes up to three records of m in place, each one way: a rare
// disease or medicine (an id no other record uses) added to a bag, a bag
// emptied, or a bag replaced by a rare id alone.
func touchFew(rng *rand.Rand, m *Monthly) {
	for k := 1 + rng.IntN(3); k > 0 && len(m.Records) > 0; k-- {
		r := &m.Records[rng.IntN(len(m.Records))]
		rareD, rareM := DiseaseID(100+rng.IntN(1000)), MedicineID(100+rng.IntN(1000))
		switch rng.IntN(5) {
		case 0:
			r.Diseases = append(r.Diseases, DiseaseCount{Disease: rareD, Count: 1})
		case 1:
			r.Medicines = append(r.Medicines, rareM)
		case 2:
			r.Diseases = nil
		case 3:
			r.Medicines = r.Medicines[:0]
		default:
			r.Medicines = []MedicineID{rareM}
		}
	}
}

func TestFilterMonthlyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	months := []*Monthly{{Month: 2}, {Month: 3, Records: []Record{}}, {Month: 1, Records: []Record{{}, {Patient: 4}}}}
	for i := 0; i < 200; i++ {
		months = append(months, randomMonth(rng, rng.IntN(60)))
	}
	// Months with no rare id at any threshold up to 8, as they are and
	// with only a few records changed.
	for i := 0; i < 60; i++ {
		m := commonMonth(rng, 1+rng.IntN(20), 8)
		months = append(months, m)
		few := &Monthly{Month: m.Month, Records: slices.Clone(m.Records)}
		touchFew(rng, few)
		months = append(months, few)
	}
	for i, m := range months {
		for _, minFreq := range []int{0, 1, 2, 3, 5, 8, 100} {
			opts := FilterOptions{MinMonthlyFreq: minFreq}
			got, want := FilterMonthly(m, opts), filterMonthlyReference(m, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("month %d, MinMonthlyFreq %d:\n got %+v\nwant %+v", i, minFreq, got, want)
			}
		}
	}
}

// TestFilterDatasetByteIdentical pins the filtered corpus against the
// reference filter, as a value and as encoded bytes.
func TestFilterDatasetByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	d := NewDataset()
	for i := 0; i < 12; i++ {
		d.Diseases.Intern(string(rune('a' + i)))
	}
	for i := 0; i < 15; i++ {
		d.Medicines.Intern(string(rune('A' + i)))
	}
	for i := 0; i < 3; i++ {
		d.AddHospital(Hospital{Code: string(rune('0' + i))})
	}
	for month := 0; month < 6; month++ {
		m := &Monthly{Month: month}
		// The upper half of each vocabulary is drawn one time in ten, so
		// those codes fall under the threshold in most months.
		rare := func(n int) int {
			if rng.IntN(10) == 0 {
				return n/2 + rng.IntN(n-n/2)
			}
			return rng.IntN(n / 2)
		}
		for i := 0; i < 80; i++ {
			r := Record{Hospital: HospitalID(rng.IntN(3)), Patient: int32(rng.IntN(100))}
			for j := 1 + rng.IntN(3); j > 0; j-- {
				r.Diseases = append(r.Diseases, DiseaseCount{Disease: DiseaseID(rare(12)), Count: 1 + rng.IntN(2)})
			}
			for j := 1 + rng.IntN(3); j > 0; j-- {
				r.Medicines = append(r.Medicines, MedicineID(rare(15)))
			}
			m.Records = append(m.Records, r)
		}
		d.Months = append(d.Months, m)
	}
	opts := DefaultFilterOptions()
	got := FilterDataset(d, opts)
	want := &Dataset{Diseases: d.Diseases, Medicines: d.Medicines, Hospitals: d.Hospitals}
	var dropped int
	for _, m := range d.Months {
		f := filterMonthlyReference(m, opts)
		want.Months = append(want.Months, f)
		for i := range f.Records {
			dropped -= len(f.Records[i].Diseases) + len(f.Records[i].Medicines)
		}
		for i := range m.Records {
			dropped += len(m.Records[i].Diseases) + len(m.Records[i].Medicines)
		}
	}
	if dropped == 0 {
		t.Fatal("corpus exercises no filtering")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("filtered dataset differs from the reference filter")
	}
	var gotBytes, wantBytes bytes.Buffer
	if err := Write(&gotBytes, got); err != nil {
		t.Fatal(err)
	}
	if err := Write(&wantBytes, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
		t.Fatal("encoded filtered dataset differs from the reference filter's")
	}
}

// TestFilterMonthlySlabLayout pins the slab layout of changed records: their
// kept entries sit back to back in one disease slab and one medicine slab (a
// dropped record takes no room), and growing one record's bags never writes
// into its neighbour's.
func TestFilterMonthlySlabLayout(t *testing.T) {
	m := &Monthly{Records: []Record{
		{Diseases: []DiseaseCount{{Disease: 0, Count: 1}, {Disease: 2, Count: 1}}, Medicines: []MedicineID{0, 2}},
		{Diseases: []DiseaseCount{{Disease: 0, Count: 1}, {Disease: 1, Count: 1}}}, // dropped: no medicines
		{Diseases: []DiseaseCount{{Disease: 0, Count: 1}, {Disease: 1, Count: 1}}, Medicines: []MedicineID{0, 1}},
	}}
	out := FilterMonthly(m, FilterOptions{MinMonthlyFreq: 2})
	if len(out.Records) != 2 {
		t.Fatalf("kept %d records, want 2", len(out.Records))
	}
	first, second := &out.Records[0], &out.Records[1]
	adjacent := func(a, b unsafe.Pointer, size uintptr) bool { return uintptr(b)-uintptr(a) == size }
	if !adjacent(unsafe.Pointer(&first.Diseases[0]), unsafe.Pointer(&second.Diseases[0]), unsafe.Sizeof(DiseaseCount{})) ||
		!adjacent(unsafe.Pointer(&first.Medicines[0]), unsafe.Pointer(&second.Medicines[0]), unsafe.Sizeof(MedicineID(0))) {
		t.Fatal("changed records' bags are not consecutive in one slab")
	}
	first.Diseases = append(first.Diseases, DiseaseCount{Disease: 9, Count: 9})
	first.Medicines = append(first.Medicines, 9)
	if second.Diseases[0] != (DiseaseCount{Disease: 0, Count: 1}) || second.Medicines[0] != 0 {
		t.Fatalf("append to record 0 overwrote record 1: %+v", *second)
	}
}

// overlaps reports whether a and b share any element of memory.
func overlaps[E any](a, b []E) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(a[0])
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b))*size && b0 < a0+uintptr(len(a))*size
}

// cloneMonth deep-copies m: its record array and every bag.
func cloneMonth(m *Monthly) *Monthly {
	c := &Monthly{Month: m.Month, Records: slices.Clone(m.Records)}
	for i := range c.Records {
		c.Records[i].Diseases = slices.Clone(c.Records[i].Diseases)
		c.Records[i].Medicines = slices.Clone(c.Records[i].Medicines)
	}
	return c
}

// TestFilterMonthlyAliasing pins what a filtered month shares with its
// source. A month the filter leaves whole is a new Monthly over the source's
// record array; a record kept whole shares its source bags; a changed
// record's bags share no memory with any source bag. Filtering the filtered
// month again gives an equal month.
func TestFilterMonthlyAliasing(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	opts := DefaultFilterOptions()
	m := commonMonth(rng, 12, 8)
	out := FilterMonthly(m, opts)
	if out == m {
		t.Fatal("an all-kept month came back as the source pointer")
	}
	if !reflect.DeepEqual(out, m) || &out.Records[0] != &m.Records[0] || cap(out.Records) != len(m.Records) {
		t.Fatal("an all-kept month does not share the source's record array, capacity capped")
	}

	// A rare entry added to a few records changes them but keeps them; a
	// record of rare ids alone is dropped. Neither lowers the frequency of
	// a common id, so the filtered month filters to itself.
	src := cloneMonth(m)
	changed := map[int]bool{3: true, 17: true, 25: true, 40: true}
	for i := range changed {
		r := &src.Records[i]
		if i == 25 {
			r.Medicines = append(r.Medicines, 300)
		} else {
			r.Diseases = append(r.Diseases, DiseaseCount{Disease: DiseaseID(200 + i), Count: 1})
		}
	}
	src.Records = append(src.Records, Record{Diseases: []DiseaseCount{{Disease: 500, Count: 1}}, Medicines: []MedicineID{500}})
	before := cloneMonth(src)
	out = FilterMonthly(src, opts)
	if !reflect.DeepEqual(out, filterMonthlyReference(src, opts)) {
		t.Fatal("filtered month differs from the reference filter")
	}
	if len(out.Records) != len(m.Records) {
		t.Fatalf("kept %d records, want %d", len(out.Records), len(m.Records))
	}
	for i := range out.Records {
		got, from := &out.Records[i], &src.Records[i]
		if !changed[i] {
			if &got.Diseases[0] != &from.Diseases[0] || &got.Medicines[0] != &from.Medicines[0] {
				t.Fatalf("record %d was kept whole but does not share its source bags", i)
			}
			continue
		}
		for j := range src.Records {
			if overlaps(got.Diseases, src.Records[j].Diseases) || overlaps(got.Medicines, src.Records[j].Medicines) {
				t.Fatalf("changed record %d aliases source record %d's bags", i, j)
			}
		}
	}
	again := FilterMonthly(out, opts)
	if again == out || !reflect.DeepEqual(again, out) {
		t.Fatal("filtering the filtered month again changed it or returned its pointer")
	}
	for i := range changed {
		r := &out.Records[i]
		for j := range r.Diseases {
			r.Diseases[j] = DiseaseCount{Disease: -1, Count: -1}
		}
		for j := range r.Medicines {
			r.Medicines[j] = -1
		}
	}
	if !reflect.DeepEqual(src, before) {
		t.Fatal("writing to changed records' bags altered the source month")
	}
}
