package mic

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStorageRejectsUnknownFormat pins the format dispatch: a Format outside
// the defined ones fails every file entry point with the same error, and the
// stream writer creates no file for it.
func TestStorageRejectsUnknownFormat(t *testing.T) {
	const want = "mic: no storage backend for format Format(7)"
	bad := Format(7)
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	if _, err := WriteDatasetFile(path, bad, NewDataset(), StorageOptions{}); err == nil || err.Error() != want {
		t.Fatalf("WriteDatasetFile err = %v, want %q", err, want)
	}
	if _, _, _, err := ReadDatasetFile(path, bad, StorageOptions{}); err == nil || err.Error() != want {
		t.Fatalf("ReadDatasetFile err = %v, want %q", err, want)
	}
	if _, _, err := NewStreamFileWriter(path, bad, StreamMeta{}, StorageOptions{}); err == nil || err.Error() != want {
		t.Fatalf("NewStreamFileWriter err = %v, want %q", err, want)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a file was left at %s (stat err %v)", path, err)
	}
}
