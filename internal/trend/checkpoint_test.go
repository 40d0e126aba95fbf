package trend

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"maps"
	"math"
	"reflect"
	"testing"

	"mictrend/internal/faultpoint"
	"mictrend/internal/medmodel"
	"mictrend/internal/mic"
	"mictrend/internal/micgen"
	"mictrend/internal/obs"
)

// memCheckpointer is an in-memory Checkpointer for pipeline-level tests; the
// durable implementation lives in internal/serve.
type memCheckpointer struct {
	months map[int]MonthCheckpoint
	saves  int
	loads  int
	failAt int // month whose SaveMonth fails terminally (-1 = never)
}

func newMemCheckpointer() *memCheckpointer {
	return &memCheckpointer{months: make(map[int]MonthCheckpoint), failAt: -1}
}

func (m *memCheckpointer) LoadMonth(month int) (MonthCheckpoint, bool, error) {
	m.loads++
	cp, ok := m.months[month]
	return cp, ok, nil
}

func (m *memCheckpointer) SaveMonth(cp MonthCheckpoint) error {
	if cp.Month == m.failAt {
		return errors.New("store cannot commit")
	}
	m.saves++
	m.months[cp.Month] = cp
	return nil
}

// clone returns a checkpointer holding the same saved months.
func (m *memCheckpointer) clone() *memCheckpointer {
	c := newMemCheckpointer()
	maps.Copy(c.months, m.months)
	return c
}

func genTiny(t *testing.T) *mic.Dataset {
	t.Helper()
	ds, _, err := micgen.Generate(micgen.Config{
		Seed:            11,
		Months:          8,
		RecordsPerMonth: 200,
		BulkDiseases:    4,
		BulkMedicines:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func ckptOptions() Options {
	opts := DefaultOptions()
	opts.Method = MethodBinary
	opts.Seasonal = false
	opts.MinSeriesTotal = 100
	opts.Workers = 2
	return opts
}

// TestCheckpointResumeByteIdentical is the core resumability contract: a run
// that reloads every month from a checkpointer produces an Analysis deeply
// equal to the uncheckpointed run, fitting zero months itself.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	ds := genTiny(t)
	opts := ckptOptions()

	plain, err := Analyze(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := newMemCheckpointer()
	opts.Checkpoint = ckpt
	first, err := Analyze(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.saves != ds.T() {
		t.Fatalf("first run saved %d months, want %d", ckpt.saves, ds.T())
	}
	if !reflect.DeepEqual(plain, first) {
		t.Fatal("checkpointed run differs from plain run")
	}

	metrics := obs.NewRegistry()
	opts.Metrics = metrics
	second, err := Analyze(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.saves != ds.T() {
		t.Fatalf("resumed run saved %d more months, want 0", ckpt.saves-ds.T())
	}
	if got := metrics.Counter("trend/ckpt_months_reused").Value(); got != int64(ds.T()) {
		t.Fatalf("reused %d months, want %d", got, ds.T())
	}
	second.MonthProvenance = first.MonthProvenance // Metrics wiring aside, results must match
	if !reflect.DeepEqual(first, second) {
		t.Fatal("resumed run differs from first run")
	}
}

// TestCheckpointPartialResume drops some saved months and verifies only the
// holes are refitted, with identical results.
func TestCheckpointPartialResume(t *testing.T) {
	ds := genTiny(t)
	opts := ckptOptions()

	ckpt := newMemCheckpointer()
	opts.Checkpoint = ckpt
	first, err := Analyze(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	delete(ckpt.months, 2)
	delete(ckpt.months, 5)
	ckpt.saves = 0
	metrics := obs.NewRegistry()
	opts.Metrics = metrics
	second, err := Analyze(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.saves != 2 {
		t.Fatalf("refitted %d months, want 2", ckpt.saves)
	}
	if got := metrics.Counter("trend/ckpt_months_reused").Value(); got != int64(ds.T()-2) {
		t.Fatalf("reused %d months, want %d", got, ds.T()-2)
	}
	if !reflect.DeepEqual(first.Models, second.Models) {
		t.Fatal("models differ after partial resume")
	}
	if !reflect.DeepEqual(first.Prescriptions, second.Prescriptions) {
		t.Fatal("detections differ after partial resume")
	}
}

// TestCheckpointStaleHashIgnored: a store built under different fit options
// must be ignored, not trusted.
func TestCheckpointStaleHashIgnored(t *testing.T) {
	ds := genTiny(t)
	opts := ckptOptions()
	ckpt := newMemCheckpointer()
	opts.Checkpoint = ckpt
	if _, err := Analyze(context.Background(), ds, opts); err != nil {
		t.Fatal(err)
	}

	opts.EM.MaxIter = 3 // different fit options → different DataHash
	metrics := obs.NewRegistry()
	opts.Metrics = metrics
	ckpt.saves = 0
	if _, err := Analyze(context.Background(), ds, opts); err != nil {
		t.Fatal(err)
	}
	if got := metrics.Counter("trend/ckpt_months_reused").Value(); got != 0 {
		t.Fatalf("reused %d stale months, want 0", got)
	}
	if ckpt.saves != ds.T() {
		t.Fatalf("re-saved %d months, want %d", ckpt.saves, ds.T())
	}
}

// TestCheckpointSmoothedChainPrefix: with a cross-month prior chain, a hole
// invalidates everything after it, and the resumed chain (seeded with the
// last reused posterior) still reproduces the uncheckpointed fit exactly.
func TestCheckpointSmoothedChainPrefix(t *testing.T) {
	ds := genTiny(t)
	opts := ckptOptions()
	opts.EM.PriorWeight = 50

	plain, err := Analyze(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := newMemCheckpointer()
	opts.Checkpoint = ckpt
	if _, err := Analyze(context.Background(), ds, opts); err != nil {
		t.Fatal(err)
	}
	// Hole at month 3: months 3..7 must all refit (serial prior chain), and
	// only 0..2 are reusable.
	delete(ckpt.months, 3)
	ckpt.saves = 0
	metrics := obs.NewRegistry()
	opts.Metrics = metrics
	resumed, err := Analyze(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.Counter("trend/ckpt_months_reused").Value(); got != 3 {
		t.Fatalf("reused %d months, want 3 (prefix before the hole)", got)
	}
	if ckpt.saves != ds.T()-3 {
		t.Fatalf("refitted %d months, want %d", ckpt.saves, ds.T()-3)
	}
	if !reflect.DeepEqual(plain.Models, resumed.Models) {
		t.Fatal("smoothed chain resume diverged from the uncheckpointed fit")
	}
}

// TestCheckpointSaveFailureAborts: durable means durable — a SaveMonth error
// aborts the analysis instead of serving unpersisted results.
func TestCheckpointSaveFailureAborts(t *testing.T) {
	ds := genTiny(t)
	opts := ckptOptions()
	ckpt := newMemCheckpointer()
	ckpt.failAt = 4
	opts.Checkpoint = ckpt
	if _, err := Analyze(context.Background(), ds, opts); err == nil {
		t.Fatal("expected a checkpoint commit failure to abort the analysis")
	}
}

// TestCheckpointLoadFaultRefits: an injected load fault makes the pipeline
// refit the month rather than abort, and results stay identical.
func TestCheckpointLoadFaultRefits(t *testing.T) {
	ds := genTiny(t)
	opts := ckptOptions()
	ckpt := newMemCheckpointer()
	opts.Checkpoint = ckpt
	first, err := Analyze(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}

	faultpoint.Enable("trend/ckpt-load", faultpoint.Spec{
		Match: func(detail string) bool { return detail == "month-1" },
	})
	defer faultpoint.Reset()
	metrics := obs.NewRegistry()
	opts.Metrics = metrics
	second, err := Analyze(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := metrics.Counter("trend/ckpt_months_reused").Value(); got != int64(ds.T()-1) {
		t.Fatalf("reused %d months, want %d", got, ds.T()-1)
	}
	if !reflect.DeepEqual(first.Models, second.Models) {
		t.Fatal("models differ after a load fault refit")
	}
}

// TestHashMonthSensitivity: the fingerprint must move with the data and the
// fit options, and stay put for identical inputs.
func TestHashMonthSensitivity(t *testing.T) {
	ds := genTiny(t)
	var em, em2 medmodel.FitOptions
	base := HashMonth(ds.Months[0], em)
	if HashMonth(ds.Months[0], em) != base {
		t.Fatal("hash not deterministic")
	}
	em2.MaxIter = em.WithDefaults().MaxIter + 1
	if HashMonth(ds.Months[0], em2) == base {
		t.Fatal("hash ignores MaxIter")
	}
	if HashMonth(ds.Months[1], em) == base {
		t.Fatal("hash ignores records")
	}
	clone := &mic.Monthly{Month: ds.Months[0].Month}
	for _, r := range ds.Months[0].Records {
		clone.Records = append(clone.Records, r.Clone())
	}
	if HashMonth(clone, em) != base {
		t.Fatal("hash differs for cloned identical records")
	}
	clone.Records[0].Medicines = append(clone.Records[0].Medicines, 0)
	if HashMonth(clone, em) == base {
		t.Fatal("hash ignores a medicine bag change")
	}
}

// refHashMonth is HashMonth written over hash/fnv: the reference byte stream
// (little-endian words) checkpoint files on disk were fingerprinted with.
func refHashMonth(month *mic.Monthly, em medmodel.FitOptions) uint64 {
	return refHash(month, em, medmodel.ArithmeticTag)
}

// refHash is the FNV-1a hash of HashMonth's word stream under the given
// arithmetic tags (one, or none). Without a tag it is the fingerprint
// checkpoints carried before the tag was folded in; with an older tag, the
// one that arithmetic's checkpoints carry.
func refHash(month *mic.Monthly, em medmodel.FitOptions, tags ...uint64) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	em = em.WithDefaults()
	put(uint64(month.Month))
	put(uint64(em.MaxIter))
	put(math.Float64bits(em.Tol))
	put(math.Float64bits(em.PriorWeight))
	for _, tag := range tags {
		put(tag)
	}
	put(uint64(len(month.Records)))
	for i := range month.Records {
		r := &month.Records[i]
		put(uint64(uint32(r.Hospital)))
		put(uint64(uint32(r.Patient)))
		put(uint64(len(r.Diseases)))
		for _, dc := range r.Diseases {
			put(uint64(uint32(dc.Disease)))
			put(uint64(dc.Count))
		}
		put(uint64(len(r.Medicines)))
		for _, m := range r.Medicines {
			put(uint64(uint32(m)))
		}
	}
	return h.Sum64()
}

// TestHashMonthMatchesFNV pins HashMonth's value, which checkpoint files on
// disk store and the facade exports: it must equal hash/fnv's FNV-1a over
// the same byte stream on every generated month, under default and
// non-default fit options, and a fixed month keeps its golden fingerprint.
func TestHashMonthMatchesFNV(t *testing.T) {
	ds := genTiny(t)
	smoothed := medmodel.FitOptions{MaxIter: 40, Tol: 1e-7, PriorWeight: 0.5}
	// Words with zero bytes between nonzero ones, all-ones words and a
	// count past 32 bits, next to the generated months' small ids.
	edge := &mic.Monthly{Month: 1 << 16, Records: []mic.Record{
		{Hospital: 1 << 24, Patient: math.MaxInt32,
			Diseases:  []mic.DiseaseCount{{Disease: 0x01000001, Count: 1 << 40}, {Disease: -1, Count: -1}},
			Medicines: []mic.MedicineID{0x00ff0000, 0, 256}},
	}}
	months := append([]*mic.Monthly{edge}, ds.Months...)
	for _, em := range []medmodel.FitOptions{{}, smoothed} {
		for i, m := range months {
			if got, want := HashMonth(m, em), refHashMonth(m, em); got != want {
				t.Fatalf("month %d: HashMonth = %#x, hash/fnv = %#x", i, got, want)
			}
		}
	}
	golden := &mic.Monthly{Month: 3, Records: []mic.Record{
		{Hospital: 1, Patient: 42,
			Diseases:  []mic.DiseaseCount{{Disease: 5, Count: 2}, {Disease: 9, Count: 1}},
			Medicines: []mic.MedicineID{7, 3}},
		{Hospital: 0, Patient: -1,
			Diseases:  []mic.DiseaseCount{{Disease: 0, Count: 1}},
			Medicines: []mic.MedicineID{11}},
	}}
	const want uint64 = 0x7a3fa4b174c7cc19
	if got := HashMonth(golden, medmodel.FitOptions{}); got != want {
		t.Fatalf("golden month: HashMonth = %#x, want %#x", got, want)
	}
	// Under tags 4, 3 and 2, and without the arithmetic tag, the stream is
	// the one fingerprints had before: the golden month's old values.
	for _, old := range []struct {
		tags []uint64
		want uint64
	}{{[]uint64{4}, 0xcb884ead1c3c2ff8}, {[]uint64{3}, 0x7a90dd20f88b6447}, {[]uint64{2}, 0xaff7778cca731e26}, {nil, 0x8f146da73ad17964}} {
		if got := refHash(golden, medmodel.FitOptions{}, old.tags...); got != old.want {
			t.Fatalf("golden month under tags %v: %#x, want %#x", old.tags, got, old.want)
		}
	}
}

// TestCheckpointOldArithmeticRefit: a store whose months carry the
// fingerprint of an older EM arithmetic holds models fitted by it: the
// per-occurrence sweep (no tag), under tag 2 a smoothed chain fitted by
// the map-based MAP loop, under tag 3 plain and smoothed months whose
// sweep took one log per entry, or under tag 4 plain and smoothed months
// swept entry by entry rather than tile by tile. Serving them next to fresh fits would make a
// restarted server disagree with a cold analysis in the last bits, so every
// such month is refit, not reused, and the result equals a cold run.
func TestCheckpointOldArithmeticRefit(t *testing.T) {
	for _, tc := range []struct {
		name        string
		priorWeight float64
		tags        []uint64
	}{
		{"untagged", 0, nil},
		{"smoothed tag 2", 50, []uint64{2}},
		{"tag 3", 0, []uint64{3}},
		{"smoothed tag 3", 50, []uint64{3}},
		{"tag 4", 0, []uint64{4}},
		{"smoothed tag 4", 50, []uint64{4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := genTiny(t)
			opts := ckptOptions()
			opts.EM.PriorWeight = tc.priorWeight
			cold, err := Analyze(context.Background(), ds, opts)
			if err != nil {
				t.Fatal(err)
			}

			ckpt := newMemCheckpointer()
			opts.Checkpoint = ckpt
			if _, err := Analyze(context.Background(), ds, opts); err != nil {
				t.Fatal(err)
			}
			fopts := mic.FilterOptions{MinMonthlyFreq: opts.MinMonthlyFreq}
			for i, m := range ds.Months {
				cp := ckpt.months[i]
				filtered := mic.FilterMonthly(m, fopts)
				if cp.DataHash != refHashMonth(filtered, opts.EM) {
					t.Fatalf("month %d: saved fingerprint %#x is not the tagged hash", i, cp.DataHash)
				}
				cp.DataHash = refHash(filtered, opts.EM, tc.tags...)
				ckpt.months[i] = cp
			}

			metrics := obs.NewRegistry()
			opts.Metrics = metrics
			ckpt.saves = 0
			got, err := Analyze(context.Background(), ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := metrics.Counter("trend/ckpt_months_reused").Value(); n != 0 {
				t.Fatalf("reused %d months fingerprinted under an older arithmetic, want 0", n)
			}
			if ckpt.saves != ds.T() {
				t.Fatalf("refit and saved %d months, want %d", ckpt.saves, ds.T())
			}
			got.MonthProvenance = cold.MonthProvenance
			if !reflect.DeepEqual(got, cold) {
				t.Fatal("analysis over the refit store differs from a cold run")
			}
		})
	}
}
