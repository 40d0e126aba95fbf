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
