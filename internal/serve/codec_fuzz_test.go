package serve

import (
	"bytes"
	"errors"
	"testing"

	"mictrend/internal/medmodel"
	"mictrend/internal/mic"
	"mictrend/internal/trend"
)

// FuzzDecodeMonth feeds arbitrary bytes to the checkpoint month decoder
// (decodeMonth, and through it decodeModel), which recovery runs on every
// month file it finds on disk. The invariant: the decoder returns an
// ErrCorrupt error, or a state whose re-encoding decodes again to a state
// with the same encoding — never a panic. The seeds are encodeMonth's
// output for three states: records only, a model only, and a failure.
func FuzzDecodeMonth(f *testing.F) {
	records := &monthState{
		Month: 3, DataHash: 0x9e3779b97f4a7c15, HasRecords: true,
		Diseases:  []string{"hypertension", "diabetes"},
		Medicines: []string{"amlodipine", "metformin", "insulin"},
		Hospitals: []mic.Hospital{{Code: "H1", City: "Kyoto", Beds: 120}, {Code: "H2", City: "Osaka", Beds: 15}},
		Records: &mic.Monthly{Month: 3, Records: []mic.Record{
			{Hospital: 0, Patient: 7, Diseases: []mic.DiseaseCount{{Disease: 0, Count: 2}}, Medicines: []mic.MedicineID{0}},
			{Hospital: 1, Patient: -1, Diseases: []mic.DiseaseCount{{Disease: 0, Count: 1}, {Disease: 1, Count: 1}}, Medicines: []mic.MedicineID{1, 2}},
		}},
	}
	model := &monthState{Month: 4, DataHash: 42, Model: &medmodel.Model{
		M: 3, LogLik: -12.5, Iterations: 2, LogLikTrace: []float64{-20, -12.5},
		Eta: map[mic.DiseaseID]float64{0: 0.75, 1: 0.25},
		Phi: map[mic.DiseaseID]map[mic.MedicineID]float64{
			0: {0: 0.9, 1: 0.1},
			1: {1: 0.5, 2: 0.5},
		},
	}}
	failure := &monthState{Month: 5, DataHash: 7, Failure: &trend.Failure{
		Stage: trend.StageModel, Month: 5, Err: "medmodel: EM diverged", Panicked: true,
	}}
	for _, st := range []*monthState{records, model, failure} {
		f.Add(encodeMonth(st))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := decodeMonth(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		enc := encodeMonth(st)
		again, err := decodeMonth(enc)
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if !bytes.Equal(encodeMonth(again), enc) {
			t.Fatalf("re-decoded state encodes differently")
		}
	})
}
