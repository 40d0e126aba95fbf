package trend

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mictrend/internal/faultpoint"
	"mictrend/internal/mic"
	"mictrend/internal/obs"
)

// analyzerSteps is a growing corpus as a fold sees it: ds's months arrive
// one at a time, the tail is dropped and re-added once (an unwound fold
// retried with the same month), and month 4 is unwound and replaced by a
// different month before the corpus grows on. Every step shares the
// *mic.Monthly pointers of the steps before it, as the serving core does.
func analyzerSteps(ds *mic.Dataset) []*mic.Dataset {
	sub := func(months ...*mic.Monthly) *mic.Dataset {
		return &mic.Dataset{Diseases: ds.Diseases, Medicines: ds.Medicines, Hospitals: ds.Hospitals, Months: months}
	}
	orig := ds.Months
	// The replacement for month 4 carries month 7's records under index 4.
	alt := append(append([]*mic.Monthly(nil), orig[:4]...), &mic.Monthly{Month: 4, Records: orig[7].Records})
	var steps []*mic.Dataset
	for n := 1; n <= 5; n++ {
		steps = append(steps, sub(orig[:n]...))
	}
	steps = append(steps, sub(orig[:4]...), sub(orig[:5]...)) // unwind, same month again
	steps = append(steps, sub(alt...))                        // a different month at index 4
	steps = append(steps, sub(append(alt, orig[5:7]...)...))
	return steps
}

// TestAnalyzerMatchesAnalyze pins the Analyzer's contract: fed a corpus one
// month at a time — with a month whose EM fit fails (the fallback model),
// an unwound tail, and a different month at an unwound index — every call's
// Analysis equals a fresh Analyze over the same months and checkpoint
// state, floats bit for bit, with and without a Checkpointer. Midway the EM
// fault lifts, so the fallback month gets its real model: refitted at once
// without a Checkpointer, and after a forced checkpoint-load fault with one.
func TestAnalyzerMatchesAnalyze(t *testing.T) {
	ds := genTiny(t)
	const liftAt = 6 // the step at which month 3's EM fit stops failing
	defer faultpoint.Reset()
	for _, withCkpt := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", withCkpt), func(t *testing.T) {
			faultpoint.Reset()
			faultpoint.Enable("medmodel/fit-month", faultpoint.Spec{
				Match: func(detail string) bool { return detail == "3" },
			})
			opts := ckptOptions()
			ckpt := newMemCheckpointer()
			if withCkpt {
				opts.Checkpoint = ckpt
			}
			an := NewAnalyzer(opts)
			for i, step := range analyzerSteps(ds) {
				switch {
				case i == liftAt:
					faultpoint.Reset()
				case i == liftAt+1 && withCkpt:
					// Month 3's saved failure is reloaded until a load fault
					// forces the refit.
					faultpoint.Enable("trend/ckpt-load", faultpoint.Spec{
						Match: func(detail string) bool { return detail == "month-3" },
					})
				}
				ref := ckptOptions()
				if withCkpt {
					ref.Checkpoint = ckpt.clone()
				}
				want, err := Analyze(context.Background(), step, ref)
				if err != nil {
					t.Fatal(err)
				}
				got, err := an.Analyze(context.Background(), step)
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if path, ok := bitsEqual(reflect.ValueOf(got), reflect.ValueOf(want), "Analysis"); !ok {
					t.Fatalf("step %d (%d months): Analyzer differs from a fresh Analyze at %s", i, step.T(), path)
				}
				if fell := hasModelFailure(got, 3); i < liftAt && step.T() > 3 && !fell {
					t.Fatalf("step %d: month 3 did not fall back", i)
				} else if i > liftAt && fell {
					t.Fatalf("step %d: month 3 still falls back after the fault lifted", i)
				}
			}
		})
	}
}

func hasModelFailure(a *Analysis, month int) bool {
	for _, f := range a.Failures {
		if f.Stage == StageModel && f.Month == month {
			return true
		}
	}
	return false
}

// TestAnalyzerPreparesEachMonthOnce counts the per-month work across calls:
// each month is filtered once, however many analyses it is part of, and —
// when a Checkpointer hands back the same model — reproduced once. A
// fallback month's model is rebuilt on every call, so it is reproduced on
// every call. Without a Checkpointer every call refits, so every month is
// reproduced every call, and no month is fingerprinted.
func TestAnalyzerPreparesEachMonthOnce(t *testing.T) {
	ds := genTiny(t)
	faultpoint.Reset()
	defer faultpoint.Reset()
	const fallback = 3
	faultpoint.Enable("medmodel/fit-month", faultpoint.Spec{
		Match: func(detail string) bool { return detail == fmt.Sprint(fallback) },
	})
	for _, withCkpt := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", withCkpt), func(t *testing.T) {
			opts := ckptOptions()
			if withCkpt {
				opts.Checkpoint = newMemCheckpointer()
			}
			metrics := obs.NewRegistry()
			opts.Metrics = metrics
			an := NewAnalyzer(opts)
			calls, wantRepro := 0, 0
			for n := 1; n <= ds.T(); n++ {
				// Each prefix is analyzed twice: the second call adds no month.
				for rep := 0; rep < 2; rep++ {
					sub := &mic.Dataset{Diseases: ds.Diseases, Medicines: ds.Medicines, Hospitals: ds.Hospitals, Months: ds.Months[:n]}
					if _, err := an.Analyze(context.Background(), sub); err != nil {
						t.Fatal(err)
					}
					calls++
					switch {
					case !withCkpt:
						wantRepro += n
					case rep == 0:
						wantRepro++ // the new month
						if n > fallback+1 {
							wantRepro++ // the fallback month again
						}
					case n > fallback:
						wantRepro++
					}
				}
			}
			if got := metrics.Counter("trend/months_prepared").Value(); got != int64(ds.T()) {
				t.Fatalf("trend/months_prepared = %d over %d calls, want %d", got, calls, ds.T())
			}
			if got := metrics.Counter("trend/months_reproduced").Value(); got != int64(wantRepro) {
				t.Fatalf("trend/months_reproduced = %d over %d calls, want %d", got, calls, wantRepro)
			}
			for i, st := range an.months {
				if hashed := st.hash != 0; hashed != withCkpt {
					t.Fatalf("month %d fingerprinted = %v with checkpoint = %v", i, hashed, withCkpt)
				}
			}
		})
	}
}

// bitsEqual is reflect.DeepEqual with floats compared by their bits (so a
// -0 or a NaN payload change is a difference), reporting the first
// differing path.
func bitsEqual(a, b reflect.Value, path string) (string, bool) {
	if a.IsValid() != b.IsValid() {
		return path, false
	}
	if !a.IsValid() {
		return "", true
	}
	if a.Type() != b.Type() {
		return path + " (type)", false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return path, false
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path, false
			}
			return "", true
		}
		return bitsEqual(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if p, ok := bitsEqual(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); !ok {
				return p, false
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return path + " (nil)", false
		}
		if a.Len() != b.Len() {
			return path + " (len)", false
		}
		for i := 0; i < a.Len(); i++ {
			if p, ok := bitsEqual(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); !ok {
				return p, false
			}
		}
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return path + " (len)", false
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v] (missing)", path, iter.Key()), false
			}
			if p, ok := bitsEqual(iter.Value(), bv, fmt.Sprintf("%s[%v]", path, iter.Key())); !ok {
				return p, false
			}
		}
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if !a.IsNil() || !b.IsNil() {
			return path + " (unsupported)", false
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path, false
		}
	case reflect.String:
		if a.String() != b.String() {
			return path, false
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return path, false
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return path, false
		}
	default:
		return path + " (unsupported kind)", false
	}
	return "", true
}
