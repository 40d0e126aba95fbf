// I/O data-plane benchmarks (package mic_test so they can drive micgen,
// which itself imports mic). These pin the numbers recorded in
// BENCH.json: JSONL vs MICC1 columnar decode/encode throughput on a
// shared synthetic corpus, plus the streamed ingest harness — micgen fed
// straight into the columnar writer without ever materializing the corpus —
// at 1M records as a smoke (runs under -short in CI) and at 100M+ records
// when MIC_INGEST_RECORDS is set.
package mic_test

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mictrend/internal/mic"
	"mictrend/internal/micgen"
)

// benchCorpus is the shared decode/encode corpus: ~300k records over 24
// months, generated once per process.
var benchCorpus struct {
	once    sync.Once
	ds      *mic.Dataset
	records int
	jsonl   []byte // raw JSONL encoding
	jsonlGz []byte // gzip(JSONL), the pre-columnar on-disk form
	col     []byte // MICC1 columnar encoding
	err     error
}

func benchData(tb testing.TB) (*mic.Dataset, []byte, []byte, []byte) {
	benchCorpus.once.Do(func() {
		ds, _, err := micgen.Generate(micgen.Config{
			Seed: 42, Months: 24, RecordsPerMonth: 20000,
		})
		if err != nil {
			benchCorpus.err = err
			return
		}
		benchCorpus.ds = ds
		benchCorpus.records = ds.NumRecords()
		var buf bytes.Buffer
		if benchCorpus.err = mic.Write(&buf, ds); benchCorpus.err != nil {
			return
		}
		benchCorpus.jsonl = bytes.Clone(buf.Bytes())
		var gzBuf bytes.Buffer
		gz := gzip.NewWriter(&gzBuf)
		if _, err := gz.Write(benchCorpus.jsonl); err != nil {
			benchCorpus.err = err
			return
		}
		if benchCorpus.err = gz.Close(); benchCorpus.err != nil {
			return
		}
		benchCorpus.jsonlGz = gzBuf.Bytes()
		buf.Reset()
		if benchCorpus.err = mic.WriteColumnar(&buf, ds, mic.ColumnarWriterOptions{}); benchCorpus.err != nil {
			return
		}
		benchCorpus.col = bytes.Clone(buf.Bytes())
	})
	if benchCorpus.err != nil {
		tb.Fatal(benchCorpus.err)
	}
	return benchCorpus.ds, benchCorpus.jsonl, benchCorpus.jsonlGz, benchCorpus.col
}

func reportRecords(b *testing.B, records int) {
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "recs/s")
}

func BenchmarkJSONLDecode(b *testing.B) {
	_, jsonl, _, _ := benchData(b)
	b.SetBytes(int64(len(jsonl)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mic.ReadWithStats(bytes.NewReader(jsonl), mic.ReadOptions{Strict: true}); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, benchCorpus.records)
}

func BenchmarkColumnarDecode(b *testing.B) {
	_, _, _, col := benchData(b)
	b.SetBytes(int64(len(col)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mic.ReadColumnar(bytes.NewReader(col), int64(len(col)), mic.ColumnarReadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, benchCorpus.records)
}

func BenchmarkColumnarDecodeSerial(b *testing.B) {
	_, _, _, col := benchData(b)
	b.SetBytes(int64(len(col)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mic.ReadColumnar(bytes.NewReader(col), int64(len(col)), mic.ColumnarReadOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, benchCorpus.records)
}

func BenchmarkJSONLEncode(b *testing.B) {
	ds, jsonl, _, _ := benchData(b)
	b.SetBytes(int64(len(jsonl)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		buf.Grow(len(jsonl))
		if err := mic.Write(&buf, ds); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, benchCorpus.records)
}

func BenchmarkColumnarEncode(b *testing.B) {
	ds, _, _, col := benchData(b)
	b.SetBytes(int64(len(col)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		buf.Grow(len(col))
		if err := mic.WriteColumnar(&buf, ds, mic.ColumnarWriterOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	reportRecords(b, benchCorpus.records)
}

// TestCompressionRatio records the size story: MICC1 must be well under the
// raw JSONL and no larger than JSONL.gz. The synthetic corpus sits near its
// flate entropy floor (uniform-random patient ids plus high-entropy bag ids
// cost ~8-9 B/record no matter the layout), so the gzip-relative ratio is
// bounded near 1.5x — see DESIGN.md for the per-column breakdown.
func TestCompressionRatio(t *testing.T) {
	_, jsonl, jsonlGz, col := benchData(t)
	recs := benchCorpus.records
	t.Logf("records=%d jsonl=%d (%.2f B/rec) jsonl.gz=%d (%.2f B/rec) micc=%d (%.2f B/rec)",
		recs, len(jsonl), float64(len(jsonl))/float64(recs),
		len(jsonlGz), float64(len(jsonlGz))/float64(recs),
		len(col), float64(len(col))/float64(recs))
	t.Logf("ratio vs raw jsonl: %.2fx   vs jsonl.gz: %.2fx",
		float64(len(jsonl))/float64(len(col)), float64(len(jsonlGz))/float64(len(col)))
	if len(col)*3 > len(jsonl) {
		t.Fatalf("columnar (%d) not ≤ 1/3 of raw JSONL (%d)", len(col), len(jsonl))
	}
	if len(col) > len(jsonlGz) {
		t.Fatalf("columnar (%d) larger than JSONL.gz (%d)", len(col), len(jsonlGz))
	}
}

// TestReadAllocsPerRecord pins the JSONL record fast path's allocation
// profile: a strict read of a generated month (10k records nominal, ~6k
// drawn) allocates per read (buffer, header, slab chunks, the month's
// record slice), not per line.
func TestReadAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under -race")
	}
	ds, _, err := micgen.Generate(micgen.Config{Seed: 7, Months: 1, RecordsPerMonth: 10000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mic.Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	body, records := buf.Bytes(), ds.NumRecords()
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := mic.ReadWithStats(bytes.NewReader(body), mic.ReadOptions{Strict: true}); err != nil {
			t.Fatal(err)
		}
	})
	perRecord := allocs / float64(records)
	t.Logf("strict JSONL read of %d records: %.0f allocations, %.4f per record", records, allocs, perRecord)
	if perRecord > 0.1 {
		t.Fatalf("strict JSONL read allocates %.3f times per record, want ≤ 0.1", perRecord)
	}
}

// TestDecodeFilterBytesPerRecord pins the bytes the read path allocates per
// record: a columnar decode of a generated corpus (one worker) plus the
// paper's frequency filter over it. A filter that copies the records it
// keeps whole, or a decoder that allocates its buffers per block, shows here
// first. The budget is the measured value plus 5%.
func TestDecodeFilterBytesPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not representative under -race")
	}
	if testing.Short() {
		t.Skip("skipping the read-path byte audit in -short mode")
	}
	ds, _, err := micgen.Generate(micgen.Config{Seed: 7, Months: 12, RecordsPerMonth: 5000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mic.WriteColumnar(&buf, ds, mic.ColumnarWriterOptions{}); err != nil {
		t.Fatal(err)
	}
	body, records := buf.Bytes(), ds.NumRecords()
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		got, err := mic.ReadColumnar(bytes.NewReader(body), int64(len(body)), mic.ColumnarReadOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		mic.FilterDataset(got, mic.DefaultFilterOptions())
	}
	runtime.ReadMemStats(&after)
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(records)
	t.Logf("columnar decode + filter of %d records: %.1f bytes per record", records, perRecord)
	const budget = 207.0 // measured: 196.9
	if perRecord > budget {
		t.Fatalf("decode + filter allocates %.1f bytes per record, budget %.1f", perRecord, budget)
	}
}

// peakMemBytes reports the process's peak memory: VmHWM (peak resident
// set) from /proc/self/status where the kernel exposes it, else the Go
// runtime's OS-reserved total (runtime.MemStats.Sys) as a labelled proxy.
func peakMemBytes() (int64, string) {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
						return kb << 10, "VmHWM"
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys), "go-runtime-sys"
}

// runIngest streams a micgen corpus month by month into a columnar file and
// reports throughput, file size, and peak RSS. The corpus is never held in
// memory: one generated month is alive at a time, and the writer compresses
// blocks on a bounded worker pool.
func runIngest(t *testing.T, cfg micgen.Config, path string) {
	gen, err := micgen.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw, _, err := mic.NewStreamFileWriter(path, mic.FormatColumnar, gen.Meta(), mic.StorageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	records := 0
	for m := gen.NextMonth(); m != nil; m = gen.NextMonth() {
		records += len(m.Records)
		if err := sw.WriteMonth(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	mem, memKind := peakMemBytes()
	t.Logf("ingest: %d records in %v (%.0f recs/s), %d bytes (%.2f B/rec), peak mem %.1f MiB (%s), GOMAXPROCS=%d",
		records, elapsed.Round(time.Millisecond), float64(records)/elapsed.Seconds(),
		info.Size(), float64(info.Size())/float64(records), float64(mem)/(1<<20), memKind, runtime.GOMAXPROCS(0))
	if records == 0 {
		t.Fatal("ingest produced zero records")
	}
}

// TestIngestSmoke streams a nominal 1M-record corpus (CI runs this under
// -short as the data-plane ingest gate).
func TestIngestSmoke(t *testing.T) {
	runIngest(t, micgen.Config{
		Seed: 7, Months: 50, RecordsPerMonth: 20000,
	}, filepath.Join(t.TempDir(), "smoke.micc"))
}

// TestIngestHuge is the 100M+-record end-to-end harness, gated behind
// MIC_INGEST_RECORDS (a nominal record-draw count, e.g. 160000000 for
// ~100M emitted records after visit-propensity thinning). It writes to
// MIC_INGEST_DIR (default the test temp dir, which needs ~1 GiB free).
func TestIngestHuge(t *testing.T) {
	env := os.Getenv("MIC_INGEST_RECORDS")
	if env == "" {
		t.Skip("set MIC_INGEST_RECORDS (nominal record draws, e.g. 160000000) to run the huge ingest")
	}
	nominal, err := strconv.ParseInt(env, 10, 64)
	if err != nil || nominal <= 0 {
		t.Fatalf("bad MIC_INGEST_RECORDS %q: %v", env, err)
	}
	perMonth := 400000
	months := int(nominal / int64(perMonth))
	if months < 1 {
		months = 1
		perMonth = int(nominal)
	}
	dir := os.Getenv("MIC_INGEST_DIR")
	if dir == "" {
		dir = t.TempDir()
	}
	path := filepath.Join(dir, fmt.Sprintf("huge-%d.micc", nominal))
	defer os.Remove(path)
	runIngest(t, micgen.Config{
		Seed: 1, Months: months, RecordsPerMonth: perMonth, Patients: 1200000,
	}, path)
}
