package mic

import (
	"testing"
	"testing/quick"
)

// buildTestDataset constructs a small 2-month dataset with two cities and
// three hospital classes.
func buildTestDataset(t *testing.T) *Dataset {
	t.Helper()
	d := NewDataset()
	dis := DiseaseID(d.Diseases.Intern("flu"))
	med := MedicineID(d.Medicines.Intern("drug"))
	hSmallTsu := d.AddHospital(Hospital{Code: "S", City: "tsu", Beds: 5})
	hMedIse := d.AddHospital(Hospital{Code: "M", City: "ise", Beds: 100})
	hLargeTsu := d.AddHospital(Hospital{Code: "L", City: "tsu", Beds: 600})
	rec := func(h HospitalID) Record {
		return Record{Hospital: h, Diseases: []DiseaseCount{{dis, 1}}, Medicines: []MedicineID{med}}
	}
	d.Months = []*Monthly{
		{Month: 0, Records: []Record{rec(hSmallTsu), rec(hMedIse), rec(hLargeTsu)}},
		{Month: 1, Records: []Record{rec(hSmallTsu), rec(hSmallTsu)}},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSplitByCity(t *testing.T) {
	d := buildTestDataset(t)
	byCity := SplitByCity(d)
	if len(byCity) != 2 {
		t.Fatalf("cities = %d, want 2", len(byCity))
	}
	tsu := byCity["tsu"]
	if tsu.T() != 2 {
		t.Fatalf("tsu months = %d", tsu.T())
	}
	if len(tsu.Months[0].Records) != 2 || len(tsu.Months[1].Records) != 2 {
		t.Fatalf("tsu records per month = %d/%d", len(tsu.Months[0].Records), len(tsu.Months[1].Records))
	}
	ise := byCity["ise"]
	if len(ise.Months[0].Records) != 1 || len(ise.Months[1].Records) != 0 {
		t.Fatalf("ise records per month = %d/%d", len(ise.Months[0].Records), len(ise.Months[1].Records))
	}
	// Total records conserved.
	if tsu.NumRecords()+ise.NumRecords() != d.NumRecords() {
		t.Fatal("records lost in split")
	}
}

func TestSplitByHospitalClass(t *testing.T) {
	d := buildTestDataset(t)
	byClass := SplitByHospitalClass(d)
	if len(byClass) != 3 {
		t.Fatalf("classes = %d", len(byClass))
	}
	if byClass[SmallHospital].NumRecords() != 3 {
		t.Fatalf("small = %d, want 3", byClass[SmallHospital].NumRecords())
	}
	if byClass[MediumHospital].NumRecords() != 1 {
		t.Fatalf("medium = %d, want 1", byClass[MediumHospital].NumRecords())
	}
	if byClass[LargeHospital].NumRecords() != 1 {
		t.Fatalf("large = %d, want 1", byClass[LargeHospital].NumRecords())
	}
	// Every class dataset still spans all months.
	for _, ds := range byClass {
		if ds.T() != d.T() {
			t.Fatal("class dataset lost months")
		}
	}
}

func TestSplitMedicinesBasic(t *testing.T) {
	m := &Monthly{Month: 0, Records: []Record{
		{Medicines: []MedicineID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{Medicines: []MedicineID{0}},
		{Medicines: []MedicineID{}},
	}}
	h := SplitMedicines(m, 0.9, 42)
	if len(h.Train.Records) != 3 || len(h.Test) != 3 {
		t.Fatalf("records = %d/%d", len(h.Train.Records), len(h.Test))
	}
	if got := len(h.Train.Records[0].Medicines); got != 9 {
		t.Fatalf("train medicines = %d, want 9", got)
	}
	if got := len(h.Test[0]); got != 1 {
		t.Fatalf("test medicines = %d, want 1", got)
	}
	// Single-medicine record keeps its medicine in train.
	if len(h.Train.Records[1].Medicines) != 1 || len(h.Test[1]) != 0 {
		t.Fatal("single-medicine record mishandled")
	}
	// Empty record stays empty.
	if len(h.Train.Records[2].Medicines) != 0 || len(h.Test[2]) != 0 {
		t.Fatal("empty record mishandled")
	}
}

func TestSplitMedicinesDeterministic(t *testing.T) {
	m := &Monthly{Month: 3, Records: []Record{{Medicines: []MedicineID{0, 1, 2, 3, 4}}}}
	a := SplitMedicines(m, 0.6, 7)
	b := SplitMedicines(m, 0.6, 7)
	if len(a.Test[0]) != len(b.Test[0]) {
		t.Fatal("same seed produced different splits")
	}
	for i := range a.Test[0] {
		if a.Test[0][i] != b.Test[0][i] {
			t.Fatal("same seed produced different test sets")
		}
	}
}

func TestSplitMedicinesPanicsOnBadFraction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad fraction accepted")
		}
	}()
	SplitMedicines(&Monthly{}, 0, 1)
}

// Property: train + test partition the original medicine multiset.
func TestSplitMedicinesPartitionProperty(t *testing.T) {
	f := func(seed uint64, sizes []uint8) bool {
		m := &Monthly{Month: 0}
		for _, s := range sizes {
			n := int(s % 12)
			meds := make([]MedicineID, n)
			for i := range meds {
				meds[i] = MedicineID(i % 5)
			}
			m.Records = append(m.Records, Record{Medicines: meds})
		}
		h := SplitMedicines(m, 0.9, seed)
		for i := range m.Records {
			counts := map[MedicineID]int{}
			for _, med := range m.Records[i].Medicines {
				counts[med]++
			}
			for _, med := range h.Train.Records[i].Medicines {
				counts[med]--
			}
			for _, med := range h.Test[i] {
				counts[med]--
			}
			for _, c := range counts {
				if c != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTopDiseasesAndMedicines(t *testing.T) {
	d := NewDataset()
	d1 := DiseaseID(d.Diseases.Intern("a"))
	d2 := DiseaseID(d.Diseases.Intern("b"))
	d3 := DiseaseID(d.Diseases.Intern("c"))
	m1 := MedicineID(d.Medicines.Intern("x"))
	m2 := MedicineID(d.Medicines.Intern("y"))
	h := d.AddHospital(Hospital{Code: "H"})
	d.Months = []*Monthly{{Month: 0, Records: []Record{
		{Hospital: h, Diseases: []DiseaseCount{{d1, 5}, {d2, 1}}, Medicines: []MedicineID{m1, m1, m2}},
		{Hospital: h, Diseases: []DiseaseCount{{d3, 2}}, Medicines: []MedicineID{m2, m2, m2}},
	}}}
	top := TopDiseases(d, 2)
	if len(top) != 2 || top[0] != d1 || top[1] != d3 {
		t.Fatalf("TopDiseases = %v", top)
	}
	// k larger than available returns everything.
	if got := len(TopDiseases(d, 100)); got != 3 {
		t.Fatalf("TopDiseases(100) = %d entries", got)
	}
}

func TestFilterMonthly(t *testing.T) {
	m := &Monthly{Month: 0}
	// Disease 0 appears 6 times total, disease 1 only twice; medicine 0
	// appears 5 times, medicine 1 once.
	for i := 0; i < 3; i++ {
		m.Records = append(m.Records, Record{
			Diseases:  []DiseaseCount{{0, 2}},
			Medicines: []MedicineID{0},
		})
	}
	m.Records = append(m.Records, Record{
		Diseases:  []DiseaseCount{{1, 2}},
		Medicines: []MedicineID{0, 0, 1},
	})
	filtered := FilterMonthly(m, FilterOptions{MinMonthlyFreq: 5})
	// The last record loses its rare disease and becomes disease-empty → dropped.
	if len(filtered.Records) != 3 {
		t.Fatalf("filtered records = %d, want 3", len(filtered.Records))
	}
	for _, r := range filtered.Records {
		for _, dc := range r.Diseases {
			if dc.Disease == 1 {
				t.Fatal("rare disease survived the filter")
			}
		}
		for _, med := range r.Medicines {
			if med == 1 {
				t.Fatal("rare medicine survived the filter")
			}
		}
	}
}

func TestFilterDatasetKeepsShape(t *testing.T) {
	d := buildTestDataset(t)
	out := FilterDataset(d, FilterOptions{MinMonthlyFreq: 1})
	if out.T() != d.T() {
		t.Fatal("filter changed month count")
	}
	if out.NumRecords() != d.NumRecords() {
		t.Fatal("min freq 1 should keep everything")
	}
	// A high threshold drops everything.
	out2 := FilterDataset(d, FilterOptions{MinMonthlyFreq: 100})
	if out2.NumRecords() != 0 {
		t.Fatal("high threshold kept records")
	}
	if DefaultFilterOptions().MinMonthlyFreq != 5 {
		t.Fatal("default threshold should match the paper (5)")
	}
}
