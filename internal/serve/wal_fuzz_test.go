package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mictrend/internal/obs"
)

// FuzzParseWAL feeds arbitrary bytes to the manifest WAL frame parser,
// which recovery runs on the WAL it finds on disk. The invariants: no panic,
// the good prefix lies within the input, and re-parsing exactly that prefix
// yields the same records and consumes all of it — the truncation recovery
// performs is a fixed point. The seeds are a WAL the store itself wrote
// (two month commits and a shutdown marker), the same WAL with a torn last
// frame, and with a flipped CRC in its first frame.
func FuzzParseWAL(f *testing.F) {
	dir := f.TempDir()
	s, _, err := Open(dir, obs.NewRegistry())
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []walRecord{
		{Kind: "month", Month: 0, File: "month-000000.ckpt", CRC: 0x1badb002},
		{Kind: "month", Month: 1, File: "month-000001.ckpt", CRC: 0xdeadbeef},
	} {
		if err := s.appendWAL(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.MarkCleanShutdown(7); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		f.Fatal(err)
	}
	if recs, good := parseWAL(wal); len(recs) != 3 || good != len(wal) {
		f.Fatalf("store-written WAL parses to %d records over %d of %d bytes", len(recs), good, len(wal))
	}
	flipped := append([]byte(nil), wal...)
	flipped[4] ^= 0x01
	f.Add(wal)
	f.Add(wal[:len(wal)-5])
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, b []byte) {
		recs, good := parseWAL(b)
		if good < 0 || good > len(b) {
			t.Fatalf("good prefix %d outside input of %d bytes", good, len(b))
		}
		again, goodAgain := parseWAL(b[:good])
		if goodAgain != good {
			t.Fatalf("re-parsing the %d-byte good prefix keeps %d bytes", good, goodAgain)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-parsing the good prefix yields %v, want %v", again, recs)
		}
	})
}
