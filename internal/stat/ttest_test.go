package stat

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestPairedTTestKnownExample(t *testing.T) {
	// Classic textbook pairs; differences are {2, 1, 3, 2, 2}:
	// mean = 2, sd = sqrt(0.5), t = 2 / (sqrt(0.5)/sqrt(5)) = 6.3245…
	a := []float64{12, 11, 13, 12, 12}
	b := []float64{10, 10, 10, 10, 10}
	res, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.T, 2/(math.Sqrt(0.5)/math.Sqrt(5)), 1e-9) {
		t.Fatalf("t = %v", res.T)
	}
	if res.DF != 4 {
		t.Fatalf("df = %v, want 4", res.DF)
	}
	if !res.Significant(0.05) {
		t.Fatalf("p = %v, expected significant", res.P)
	}
	if !almostEqual(res.CohensD, 2/math.Sqrt(0.5), 1e-9) {
		t.Fatalf("d = %v", res.CohensD)
	}
}

func TestPairedTTestNoDifference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	n := 200
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		base := rng.NormFloat64()
		a[i] = base + rng.NormFloat64()*0.1
		b[i] = base + rng.NormFloat64()*0.1
	}
	res, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.001 {
		t.Fatalf("identical populations came out wildly significant: p = %v", res.P)
	}
}

func TestPairedTTestStrongDifference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	n := 43 // matches the paper's monthly-dataset count
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = 112 + rng.NormFloat64()*4
		b[i] = 168 + rng.NormFloat64()*7
	}
	res, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.T >= 0 {
		t.Fatalf("t = %v, want negative (a < b)", res.T)
	}
	if res.P > 1e-6 {
		t.Fatalf("p = %v, want tiny", res.P)
	}
	if res.CohensD >= -1 {
		t.Fatalf("d = %v, want large negative effect", res.CohensD)
	}
}

func TestPairedTTestErrors(t *testing.T) {
	if _, err := PairedTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if _, err := PairedTTest([]float64{1}, []float64{2}); err == nil {
		t.Fatal("single pair not rejected")
	}
}

func TestPairedTTestDegenerate(t *testing.T) {
	// Identical samples: zero variance of differences, zero mean difference.
	res, err := PairedTTest([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.T != 0 || res.P != 1 {
		t.Fatalf("identical samples: t=%v p=%v", res.T, res.P)
	}
	// Constant nonzero difference: certain difference.
	res, err = PairedTTest([]float64{2, 3, 4}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.T, 1) || res.P != 0 {
		t.Fatalf("constant difference: t=%v p=%v", res.T, res.P)
	}
}

func TestConfusionMatrixCounts(t *testing.T) {
	var cm ConfusionMatrix
	cm.Add(true, true)
	cm.Add(true, true)
	cm.Add(true, false)
	cm.Add(false, false)
	cm.Add(false, true)
	if cm.PosPos != 2 || cm.PosNeg != 1 || cm.NegPos != 1 || cm.NegNeg != 1 {
		t.Fatalf("counts = %+v", cm)
	}
	if cm.Total() != 5 {
		t.Fatalf("total = %d", cm.Total())
	}
	if got := cm.FalseNegativeRate(); !almostEqual(got, 1.0/3.0, 1e-12) {
		t.Fatalf("FNR = %v", got)
	}
	if got := cm.FalsePositiveRate(); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("FPR = %v", got)
	}
}

func TestCohensKappaKnownValue(t *testing.T) {
	// A standard worked example: po = 0.8, pe = 0.54 → κ ≈ 0.5652.
	cm := ConfusionMatrix{PosPos: 45, PosNeg: 5, NegPos: 15, NegNeg: 35}
	want := (0.8 - (0.5*0.6 + 0.5*0.4)) / (1 - (0.5*0.6 + 0.5*0.4))
	if got := cm.CohensKappa(); !almostEqual(got, want, 1e-12) {
		t.Fatalf("kappa = %v, want %v", got, want)
	}
}

func TestCohensKappaPerfectAgreement(t *testing.T) {
	cm := ConfusionMatrix{PosPos: 10, NegNeg: 20}
	if got := cm.CohensKappa(); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("kappa = %v, want 1", got)
	}
}

func TestCohensKappaDegenerateMarginals(t *testing.T) {
	// All observations positive by both raters: pe = 1, po = 1 → define κ=1.
	cm := ConfusionMatrix{PosPos: 10}
	if got := cm.CohensKappa(); got != 1 {
		t.Fatalf("kappa = %v, want 1", got)
	}
	empty := ConfusionMatrix{}
	if got := empty.CohensKappa(); !math.IsNaN(got) {
		t.Fatalf("empty kappa = %v, want NaN", got)
	}
}

func TestConfusionMatrixRatesEmptyDenominators(t *testing.T) {
	cm := ConfusionMatrix{NegNeg: 5}
	if cm.FalseNegativeRate() != 0 {
		t.Fatal("FNR with no positives should be 0")
	}
	cm2 := ConfusionMatrix{PosPos: 5}
	if cm2.FalsePositiveRate() != 0 {
		t.Fatal("FPR with no negatives should be 0")
	}
}
