package micgen

import (
	"bytes"
	"reflect"
	"testing"

	"mictrend/internal/mic"
)

// TestGenerateStreamMatchesGenerate pins the streaming path cmd/micgen
// takes: the months NextMonth yields are exactly the months Generate
// collects, because both consume the same RNG stream in the same order.
func TestGenerateStreamMatchesGenerate(t *testing.T) {
	cfg := Config{Seed: 17, Months: 8, RecordsPerMonth: 300}
	want, wantTruth, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := g.Meta()
	if meta.Months != cfg.Months || !reflect.DeepEqual(meta.Diseases, want.Diseases.Codes()) ||
		!reflect.DeepEqual(meta.Medicines, want.Medicines.Codes()) || !reflect.DeepEqual(meta.Hospitals, want.Hospitals) {
		t.Fatal("stream metadata differs from the generated dataset's")
	}
	var got []*mic.Monthly
	for m := g.NextMonth(); m != nil; m = g.NextMonth() {
		got = append(got, m)
	}
	gotTruth := g.Truth()
	if len(got) != len(want.Months) {
		t.Fatalf("streamed %d months, want %d", len(got), len(want.Months))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want.Months[i]) {
			t.Fatalf("month %d differs between Generate and the streaming generator", i)
		}
	}
	if !reflect.DeepEqual(gotTruth, wantTruth) {
		t.Fatal("ground truth differs between Generate and the streaming generator")
	}
}

// TestRoundTripJSONLColumnarJSONL is the round-trip property test: random
// micgen datasets survive JSONL → columnar → JSONL with byte-identical
// mic.Write output, and lenient reads still count skips on the JSONL side.
func TestRoundTripJSONLColumnarJSONL(t *testing.T) {
	for _, seed := range []uint64{1, 23, 456} {
		ds, _, err := Generate(Config{Seed: seed, Months: 6, RecordsPerMonth: 250})
		if err != nil {
			t.Fatal(err)
		}

		var jl1 bytes.Buffer
		if err := mic.Write(&jl1, ds); err != nil {
			t.Fatal(err)
		}
		var col bytes.Buffer
		if err := mic.WriteColumnar(&col, ds, mic.ColumnarWriterOptions{}); err != nil {
			t.Fatal(err)
		}
		ds2, err := mic.ReadColumnar(bytes.NewReader(col.Bytes()), int64(col.Len()), mic.ColumnarReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var jl2 bytes.Buffer
		if err := mic.Write(&jl2, ds2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jl1.Bytes(), jl2.Bytes()) {
			t.Fatalf("seed %d: JSONL → columnar → JSONL is not byte-identical", seed)
		}

		// Lenient reads on the regenerated JSONL still skip-and-count
		// malformed lines rather than aborting.
		lines := bytes.SplitAfter(jl2.Bytes(), []byte("\n"))
		if len(lines) < 3 {
			t.Fatalf("seed %d: corpus too small to corrupt", seed)
		}
		corrupt := bytes.Join([][]byte{lines[0], []byte("not json\n")}, nil)
		corrupt = append(corrupt, bytes.Join(lines[1:], nil)...)
		_, stats, err := mic.ReadWithStats(bytes.NewReader(corrupt), mic.ReadOptions{})
		if err != nil {
			t.Fatalf("seed %d: lenient read aborted: %v", seed, err)
		}
		if stats.SkippedLines != 1 {
			t.Fatalf("seed %d: SkippedLines = %d, want 1", seed, stats.SkippedLines)
		}
	}
}
