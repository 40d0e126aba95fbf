package trend

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"mictrend/internal/mic"
	"mictrend/internal/micgen"
)

// TestAnalyzeWorkersShardsInvariance is the pipeline's scale-out contract:
// the full analysis — detections, failures, series, fit counts — is
// byte-identical for every Workers/Shards split, and identical whether the
// corpus arrived through the JSONL or the columnar storage backend.
func TestAnalyzeWorkersShardsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline invariance sweep is heavy")
	}
	ds, _, err := micgen.Generate(micgen.Config{
		Seed: 5, Months: 16, RecordsPerMonth: 500, BulkDiseases: 6, BulkMedicines: 6,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip the corpus through the columnar backend: the analysis below
	// runs over the decoded copy, proving the data plane feeds the pipeline
	// the same bytes.
	var col bytes.Buffer
	if err := mic.WriteColumnar(&col, ds, mic.ColumnarWriterOptions{}); err != nil {
		t.Fatal(err)
	}
	fromCol, err := mic.ReadColumnar(bytes.NewReader(col.Bytes()), int64(col.Len()), mic.ColumnarReadOptions{})
	if err != nil {
		t.Fatal(err)
	}

	base := func() Options {
		opts := DefaultOptions()
		opts.Method = MethodBinary // keep the sweep fast
		opts.Seasonal = false
		opts.MinSeriesTotal = 100
		opts.Workers = 1
		opts.Shards = 1
		return opts
	}
	ref, err := Analyze(context.Background(), ds, base())
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		workers, shards int
		data            *mic.Dataset
	}{
		{workers: 4, shards: 1, data: ds},
		{workers: 4, shards: 3, data: ds},
		{workers: 2, shards: 7, data: ds},
		{workers: 8, shards: 4, data: fromCol}, // columnar-decoded corpus
	} {
		opts := base()
		opts.Workers = tc.workers
		opts.Shards = tc.shards
		got, err := Analyze(context.Background(), tc.data, opts)
		if err != nil {
			t.Fatalf("workers=%d shards=%d: %v", tc.workers, tc.shards, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d shards=%d: analysis differs from serial reference", tc.workers, tc.shards)
		}
	}
}
