package mic

import (
	"bytes"
	"compress/gzip"
	"errors"
	"testing"
)

// TestReadMaxBytes pins ReadOptions.MaxBytes: a read of exactly the cap
// succeeds, one byte over fails with ErrTooLarge, and the cap counts decoded
// bytes — after gunzip — on both backends' stream reads.
func TestReadMaxBytes(t *testing.T) {
	d := buildTestDataset(t)
	var plain, zipped, columnar bytes.Buffer
	if err := Write(&plain, d); err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(&zipped)
	if _, err := gz.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteColumnar(&columnar, d, ColumnarWriterOptions{}); err != nil {
		t.Fatal(err)
	}
	jsonlSize, columnarSize := int64(plain.Len()), int64(columnar.Len())
	if int64(zipped.Len()) >= jsonlSize-1 {
		t.Fatalf("gzip body %d bytes does not compress below the decoded size %d", zipped.Len(), jsonlSize)
	}

	for _, strict := range []bool{false, true} {
		read := func(body []byte, max int64) (*Dataset, error) {
			got, _, _, err := ReadAuto(bytes.NewReader(body), StorageOptions{Read: ReadOptions{Strict: strict, MaxBytes: max}})
			return got, err
		}
		for _, c := range []struct {
			name string
			body []byte
			size int64
		}{
			{"jsonl", plain.Bytes(), jsonlSize},
			{"gzip", zipped.Bytes(), jsonlSize},
			{"columnar", columnar.Bytes(), columnarSize},
		} {
			for _, max := range []int64{0, c.size, c.size + 1} {
				got, err := read(c.body, max)
				if err != nil {
					t.Fatalf("%s strict=%v MaxBytes=%d: %v", c.name, strict, max, err)
				}
				assertDatasetsEqual(t, d, got)
			}
			for _, max := range []int64{1, c.size / 2, c.size - 1} {
				if _, err := read(c.body, max); !errors.Is(err, ErrTooLarge) {
					t.Fatalf("%s strict=%v MaxBytes=%d: err = %v, want ErrTooLarge", c.name, strict, max, err)
				}
			}
		}
		// The JSONL codec's own entry point honours the cap too.
		if _, _, err := ReadWithStats(bytes.NewReader(plain.Bytes()), ReadOptions{Strict: strict, MaxBytes: jsonlSize - 1}); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("ReadWithStats strict=%v: err = %v, want ErrTooLarge", strict, err)
		}
	}
}

// TestReadLineCap pins the per-line cap: a record line of exactly
// maxLineBytes bytes (its newline aside) decodes, and one byte more fails
// with ErrTooLarge under both strict and lenient reads, with or without a
// final newline.
func TestReadLineCap(t *testing.T) {
	d := buildTestDataset(t)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	header, record := lines[0], bytes.TrimSuffix(lines[1], []byte("\n"))
	padded := func(n int) []byte {
		// JSON allows trailing whitespace, so padding keeps the record valid.
		return append(append([]byte(nil), record...), bytes.Repeat([]byte(" "), n-len(record))...)
	}
	for _, strict := range []bool{false, true} {
		for _, newline := range []bool{false, true} {
			body := func(n int) []byte {
				b := append(append([]byte(nil), header...), padded(n)...)
				if newline {
					b = append(b, '\n')
				}
				return b
			}
			got, _, err := ReadWithStats(bytes.NewReader(body(maxLineBytes)), ReadOptions{Strict: strict})
			if err != nil {
				t.Fatalf("strict=%v newline=%v: line at the cap: %v", strict, newline, err)
			}
			if n := got.NumRecords(); n != 1 {
				t.Fatalf("strict=%v newline=%v: line at the cap decoded %d records, want 1", strict, newline, n)
			}
			if _, _, err := ReadWithStats(bytes.NewReader(body(maxLineBytes+1)), ReadOptions{Strict: strict}); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("strict=%v newline=%v: line one byte over the cap: err = %v, want ErrTooLarge", strict, newline, err)
			}
		}
	}
}
