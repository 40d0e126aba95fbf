package medmodel

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mictrend/internal/faultpoint"
	"mictrend/internal/micgen"
)

// TestReproduceParallelMatchesSerial pins the parallel reproduce contract:
// every worker count yields bit-identical series to the serial Reproduce,
// because each month accumulates locally in record order and merges into its
// own series slot. ReproduceMonths handed sums kept from an earlier call,
// with a third of them dropped, gives the same bits too.
func TestReproduceParallelMatchesSerial(t *testing.T) {
	ds, _, err := micgen.Generate(micgen.Config{
		Seed: 9, Months: 10, RecordsPerMonth: 400, BulkDiseases: 6, BulkMedicines: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	models, fails, err := FitAll(context.Background(), ds, FitOptions{MaxIter: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Fatalf("unexpected month failures: %v", fails)
	}
	serial, err := Reproduce(ds, models)
	if err != nil {
		t.Fatal(err)
	}
	kept := make([]MonthSums, ds.T())
	if _, err := ReproduceMonths(ds, models, kept, 2); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 100} {
		par, err := ReproduceParallel(ds, models, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sums := append([]MonthSums(nil), kept...)
		for m := 0; m < len(sums); m += 3 {
			sums[m] = MonthSums{}
		}
		reused, err := ReproduceMonths(ds, models, sums, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for m := range sums {
			if !sums[m].Reproduced() {
				t.Fatalf("workers=%d: month %d left without sums", workers, m)
			}
		}
		if !reflect.DeepEqual(par, reused) {
			t.Fatalf("workers=%d: reproduction from kept sums differs", workers)
		}
		if !reflect.DeepEqual(serial.Pairs, par.Pairs) {
			t.Fatalf("workers=%d: pair series differ from serial reproduce", workers)
		}
		if !reflect.DeepEqual(serial.diseaseSeries, par.diseaseSeries) {
			t.Fatalf("workers=%d: disease marginals differ from serial reproduce", workers)
		}
		if !reflect.DeepEqual(serial.medicineSeries, par.medicineSeries) {
			t.Fatalf("workers=%d: medicine marginals differ from serial reproduce", workers)
		}
	}
}

// TestFitSumsMatchColdReproduce pins Eq. 7 as the fit's last E-step: the sums
// FitMonths hands back for each fitted month equal, bit for bit, those a cold
// reproduction computes under the fitted model, for plain and MAP fits on one
// and two workers. Month 3's fit fails and the fallback model stands in for
// it, so its sums come from the cold path on both sides.
func TestFitSumsMatchColdReproduce(t *testing.T) {
	ds, _, err := micgen.Generate(micgen.Config{
		Seed: 12, Months: 12, RecordsPerMonth: 400, BulkDiseases: 6, BulkMedicines: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Enable("medmodel/fit-month", faultpoint.Spec{
		Match: func(detail string) bool { return detail == "3" },
	})
	for _, prior := range []float64{0, 5} {
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("prior=%v/workers=%d", prior, workers)
			models, sums, fails, err := FitMonths(context.Background(), ds, FitOptions{MaxIter: 15, PriorWeight: prior, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(fails) != 1 || fails[0].Month != 3 || sums[3].Reproduced() {
				t.Fatalf("%s: fails %+v, month 3 reproduced %v: want month 3 failed without sums", label, fails, sums[3].Reproduced())
			}
			models[3] = FallbackModel(ds.Months[3], ds.Medicines.Len())
			cold := make([]MonthSums, ds.T())
			coldSet, err := ReproduceMonths(ds, models, cold, workers)
			if err != nil {
				t.Fatal(err)
			}
			for m := range sums {
				if m == 3 {
					continue
				}
				got, want := sums[m].pairs, cold[m].pairs
				if len(got) != len(want) {
					t.Fatalf("%s: month %d: %d pairs from the fit, %d cold", label, m, len(got), len(want))
				}
				for i := range got {
					if got[i].pair != want[i].pair || math.Float64bits(got[i].v) != math.Float64bits(want[i].v) {
						t.Fatalf("%s: month %d: fit sum %v %v, cold %v %v", label, m, got[i].pair, got[i].v, want[i].pair, want[i].v)
					}
				}
			}
			fitSet, err := ReproduceMonths(ds, models, sums, workers)
			if err != nil {
				t.Fatal(err)
			}
			requireSeriesBits(t, label, fitSet, coldSet)
		}
	}
}
