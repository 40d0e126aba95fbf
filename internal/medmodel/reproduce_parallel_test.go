package medmodel

import (
	"context"
	"reflect"
	"testing"

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
