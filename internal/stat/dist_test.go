package stat

import (
	"math"
	"testing"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{3, 0.9986501019683699},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x, 0, 1); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// Reference values from standard t tables.
	check := func(tv, df, want float64) {
		if got := StudentTCDF(tv, df); !almostEqual(got, want, 1e-6) {
			t.Errorf("StudentTCDF(%v, %v) = %v, want %v", tv, df, got, want)
		}
	}
	check(0, 5, 0.5)
	check(2.015048373, 5, 0.95)
	check(2.570581836, 5, 0.975)
	check(-2.570581836, 5, 0.025)
	check(1.644853627, 1e6, 0.95) // huge df approaches the normal
}

func TestStudentTCDFExtremes(t *testing.T) {
	if got := StudentTCDF(math.Inf(1), 3); got != 1 {
		t.Fatalf("CDF(+inf) = %v", got)
	}
	if got := StudentTCDF(math.Inf(-1), 3); got != 0 {
		t.Fatalf("CDF(-inf) = %v", got)
	}
	if !math.IsNaN(StudentTCDF(1, 0)) {
		t.Fatal("df=0 should be NaN")
	}
	// Very large |t| with moderate df should be numerically ~1 / ~0.
	if got := StudentTCDF(100, 42); got < 0.999999 {
		t.Fatalf("CDF(100, 42) = %v", got)
	}
}

func TestStudentTApproachesNormal(t *testing.T) {
	for _, x := range []float64{-2, -1, 0, 0.5, 1.5} {
		tv := StudentTCDF(x, 1e7)
		nv := NormalCDF(x, 0, 1)
		if !almostEqual(tv, nv, 1e-5) {
			t.Fatalf("t CDF with huge df at %v = %v, normal = %v", x, tv, nv)
		}
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if got := RegIncBeta(2, 3, 0); got != 0 {
		t.Fatalf("I_0 = %v", got)
	}
	if got := RegIncBeta(2, 3, 1); got != 1 {
		t.Fatalf("I_1 = %v", got)
	}
	// I_x(1,1) = x (uniform distribution CDF).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); !almostEqual(got, x, 1e-12) {
			t.Fatalf("I_%v(1,1) = %v", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
	if got, want := RegIncBeta(2.5, 1.5, 0.3), 1-RegIncBeta(1.5, 2.5, 0.7); !almostEqual(got, want, 1e-10) {
		t.Fatalf("symmetry: %v vs %v", got, want)
	}
}
