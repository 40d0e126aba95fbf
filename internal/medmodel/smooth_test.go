package medmodel

import (
	"context"
	"math"
	"testing"

	"mictrend/internal/mic"
)

func TestFitSmoothedNoPriorEqualsFit(t *testing.T) {
	month := twoDiseaseMonth()
	plain, err := Fit(month, 2, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	smoothed, err := FitSmoothed(month, 2, FitOptions{}, nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.LogLik-smoothed.LogLik) > 1e-9 {
		t.Fatal("nil prior should reduce to plain Fit")
	}
	smoothed2, err := FitSmoothed(month, 2, FitOptions{}, plain, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.LogLik-smoothed2.LogLik) > 1e-9 {
		t.Fatal("zero weight should reduce to plain Fit")
	}
}

func TestFitSmoothedRowsSumToOne(t *testing.T) {
	month := twoDiseaseMonth()
	prior, err := Fit(month, 2, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	smoothed, err := FitSmoothed(month, 2, FitOptions{}, prior, 3)
	if err != nil {
		t.Fatal(err)
	}
	for d, row := range smoothed.Phi {
		var sum float64
		for _, p := range row {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("smoothed phi[%d] sums to %v", d, sum)
		}
	}
}

func TestFitSmoothedKeepsPriorSupportAlive(t *testing.T) {
	// The prior strongly links disease 0 to medicine 1; the new month never
	// cooccurs them. With smoothing the pair keeps mass; without it the pair
	// has zero probability.
	prior := &Model{
		Phi: map[mic.DiseaseID]map[mic.MedicineID]float64{
			0: {1: 1.0},
		},
		M: 2,
	}
	month := &mic.Monthly{Month: 1}
	for i := 0; i < 10; i++ {
		month.Records = append(month.Records, mic.Record{
			Diseases:  []mic.DiseaseCount{{Disease: 0, Count: 1}},
			Medicines: []mic.MedicineID{0},
		})
	}
	plain, err := Fit(month, 2, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Phi[0][1] != 0 {
		t.Fatal("plain fit should have no mass on the absent pair")
	}
	smoothed, err := FitSmoothed(month, 2, FitOptions{}, prior, 5)
	if err != nil {
		t.Fatal(err)
	}
	if smoothed.Phi[0][1] <= 0 {
		t.Fatal("smoothing lost the prior pair")
	}
	// But the observed pair should still dominate (10 observations vs 5
	// pseudo-counts).
	if smoothed.Phi[0][0] <= smoothed.Phi[0][1] {
		t.Fatalf("observed pair %v should outweigh prior pair %v", smoothed.Phi[0][0], smoothed.Phi[0][1])
	}
}

func TestFitSmoothedPriorWeightControlsPull(t *testing.T) {
	prior := &Model{
		Phi: map[mic.DiseaseID]map[mic.MedicineID]float64{0: {1: 1.0}},
		M:   2,
	}
	month := &mic.Monthly{Month: 1}
	for i := 0; i < 10; i++ {
		month.Records = append(month.Records, mic.Record{
			Diseases:  []mic.DiseaseCount{{Disease: 0, Count: 1}},
			Medicines: []mic.MedicineID{0},
		})
	}
	weak, err := FitSmoothed(month, 2, FitOptions{}, prior, 1)
	if err != nil {
		t.Fatal(err)
	}
	strong, err := FitSmoothed(month, 2, FitOptions{}, prior, 50)
	if err != nil {
		t.Fatal(err)
	}
	if strong.Phi[0][1] <= weak.Phi[0][1] {
		t.Fatalf("stronger prior should pull harder: weak=%v strong=%v", weak.Phi[0][1], strong.Phi[0][1])
	}
}

func TestFitAllSmoothedChains(t *testing.T) {
	d := mic.NewDataset()
	d.Diseases.Intern("d0")
	d.Diseases.Intern("d1")
	d.Medicines.Intern("m0")
	d.Medicines.Intern("m1")
	d.AddHospital(mic.Hospital{Code: "H"})
	m0 := twoDiseaseMonth()
	// Month 1 is sparse: only mixed records (ambiguous on their own).
	m1 := &mic.Monthly{Month: 1}
	for i := 0; i < 4; i++ {
		m1.Records = append(m1.Records, mic.Record{
			Diseases:  []mic.DiseaseCount{{Disease: 0, Count: 1}, {Disease: 1, Count: 1}},
			Medicines: []mic.MedicineID{0, 1},
		})
	}
	d.Months = []*mic.Monthly{m0, m1}

	smoothed, fails, err := FitAll(context.Background(), d, FitOptions{PriorWeight: 5})
	if err != nil || len(fails) != 0 {
		t.Fatal(err, fails)
	}
	plain, fails, err := FitAll(context.Background(), d, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Fatalf("unexpected month failures: %v", fails)
	}
	// Month 1 plain: ambiguous, phi[0][1] stays near the symmetric 0.5.
	// Smoothed: month 0 resolved the links; the prior should pull month 1's
	// phi[0][0] well above phi[0][1].
	if !(smoothed[1].Phi[0][0] > 0.8) {
		t.Fatalf("smoothed month 1 phi[0][0] = %v, want > 0.8", smoothed[1].Phi[0][0])
	}
	if plain[1].Phi[0][0] > 0.8 {
		t.Fatalf("plain month 1 unexpectedly resolved the ambiguity: %v", plain[1].Phi[0][0])
	}
	if len(smoothed) != 2 {
		t.Fatal("wrong model count")
	}
}
