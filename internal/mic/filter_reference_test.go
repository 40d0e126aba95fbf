package mic

import (
	"bytes"
	"math/rand/v2"
	"reflect"
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

func TestFilterMonthlyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	months := []*Monthly{{Month: 2}, {Month: 1, Records: []Record{{}, {Patient: 4}}}}
	for i := 0; i < 200; i++ {
		months = append(months, randomMonth(rng, rng.IntN(60)))
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

// TestFilterMonthlySlabLayout pins the slab layout: kept records' bags sit
// back to back in one disease slab and one medicine slab (a dropped record's
// entries are rolled back), and growing one record's bags never writes into
// its neighbour's.
func TestFilterMonthlySlabLayout(t *testing.T) {
	m := &Monthly{Records: []Record{
		{Diseases: []DiseaseCount{{Disease: 0, Count: 1}}, Medicines: []MedicineID{0}},
		{Diseases: []DiseaseCount{{Disease: 0, Count: 1}, {Disease: 1, Count: 1}}}, // dropped: no medicines
		{Diseases: []DiseaseCount{{Disease: 0, Count: 1}, {Disease: 1, Count: 1}}, Medicines: []MedicineID{0, 1}},
	}}
	out := FilterMonthly(m, FilterOptions{MinMonthlyFreq: 1})
	if len(out.Records) != 2 {
		t.Fatalf("kept %d records, want 2", len(out.Records))
	}
	first, second := &out.Records[0], &out.Records[1]
	adjacent := func(a, b unsafe.Pointer, size uintptr) bool { return uintptr(b)-uintptr(a) == size }
	if !adjacent(unsafe.Pointer(&first.Diseases[0]), unsafe.Pointer(&second.Diseases[0]), unsafe.Sizeof(DiseaseCount{})) ||
		!adjacent(unsafe.Pointer(&first.Medicines[0]), unsafe.Pointer(&second.Medicines[0]), unsafe.Sizeof(MedicineID(0))) {
		t.Fatal("kept records' bags are not consecutive in one slab")
	}
	first.Diseases = append(first.Diseases, DiseaseCount{Disease: 9, Count: 9})
	first.Medicines = append(first.Medicines, 9)
	if second.Diseases[0] != (DiseaseCount{Disease: 0, Count: 1}) || second.Medicines[0] != 0 {
		t.Fatalf("append to record 0 overwrote record 1: %+v", *second)
	}
}
