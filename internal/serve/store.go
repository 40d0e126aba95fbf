package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"mictrend/internal/faultpoint"
	"mictrend/internal/mic"
	"mictrend/internal/obs"
	"mictrend/internal/trend"
)

// Store file layout inside the checkpoint directory:
//
//	MANIFEST.wal            append-only commit log, CRC-framed records
//	month-000042.ckpt       one committed month's state (codec.go payload
//	                        plus a trailing CRC32-C)
//	.tmp-*                  in-flight writes, cleaned at Open
//
// The WAL is the single source of truth for what exists: a month file not
// referenced by a verified WAL record is an orphan from a crash mid-commit
// and is deleted at Open. Each WAL record carries the referenced file's
// checksum, so a file that was torn, truncated, or swapped is detected even
// though the file also ends in its own CRC trailer.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walRecord is one manifest entry. Kind "month" commits a month file; kind
// "shutdown" marks a clean drain (recovery reports its absence as a dirty
// start, nothing more).
type walRecord struct {
	Kind  string `json:"kind"`
	Month int    `json:"month,omitempty"`
	File  string `json:"file,omitempty"`
	CRC   uint32 `json:"crc,omitempty"`
	Epoch int64  `json:"epoch,omitempty"`
}

// DroppedMonth is one month discarded during recovery, with the reason.
type DroppedMonth struct {
	Month  int    `json:"month"`
	Reason string `json:"reason"`
}

// RecoveryReport is the structured account of what Open found, repaired,
// and discarded. It is deterministic for a given directory state.
type RecoveryReport struct {
	// Months lists the committed months that verified, ascending.
	Months []int `json:"months"`
	// WALRecords counts the verified manifest records.
	WALRecords int `json:"wal_records"`
	// TruncatedBytes is the size of the torn WAL tail removed at Open (0
	// when the WAL ended cleanly).
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// Dropped lists months whose files failed verification, plus the reason
	// each was discarded.
	Dropped []DroppedMonth `json:"dropped,omitempty"`
	// Orphans counts unreferenced temp/month files removed at Open.
	Orphans int `json:"orphans,omitempty"`
	// CleanShutdown reports whether the WAL ends with a shutdown marker, i.e.
	// the previous process drained and exited on its own terms.
	CleanShutdown bool `json:"clean_shutdown"`
}

// Recovered reports whether Open had anything to restore or repair.
func (r *RecoveryReport) Recovered() bool {
	return len(r.Months) > 0 || r.TruncatedBytes > 0 || len(r.Dropped) > 0 || r.Orphans > 0
}

// String renders the report for logs.
func (r *RecoveryReport) String() string {
	s := fmt.Sprintf("recovered %d month(s)", len(r.Months))
	if r.TruncatedBytes > 0 {
		s += fmt.Sprintf(", truncated %dB torn WAL tail", r.TruncatedBytes)
	}
	if len(r.Dropped) > 0 {
		s += fmt.Sprintf(", dropped %d corrupt month(s)", len(r.Dropped))
	}
	if r.Orphans > 0 {
		s += fmt.Sprintf(", removed %d orphan file(s)", r.Orphans)
	}
	if r.CleanShutdown {
		s += " (clean shutdown)"
	} else {
		s += " (dirty start)"
	}
	return s
}

// Store is the durable checkpoint store: it implements trend.Checkpointer
// over the directory protocol above. All methods are goroutine-safe.
type Store struct {
	dir     string
	metrics *obs.Registry

	mu     sync.Mutex
	wal    *os.File
	months map[int]*monthState
	staged map[int]*monthState // records staged by StageMonth, committed by SaveMonth
	epoch  int64               // last epoch recorded in a shutdown marker

	onCommit func(month int, phase string) // see SetCommitObserver
}

// SetCommitObserver registers cb to be invoked at the two durable points of
// SaveMonth's two-phase commit: phase "checkpoint" once the month file is
// renamed into place and the directory synced, and phase "wal" once the WAL
// record referencing it is appended and fsynced (the commit point recovery
// honors). The serving core's lineage tracker hangs off this. cb runs with
// the store's lock held, so it must not call back into the store; a nil cb
// clears the hook. Set before the store is shared across goroutines.
func (s *Store) SetCommitObserver(cb func(month int, phase string)) {
	s.mu.Lock()
	s.onCommit = cb
	s.mu.Unlock()
}

const walName = "MANIFEST.wal"

// Open opens (creating if needed) the checkpoint directory, replays and
// repairs the manifest WAL, verifies every referenced month file, removes
// orphans, and returns the store with its recovery report. The report is
// also the place crash forensics start: a truncated tail or dropped month
// means the previous process died mid-commit, and the store rolled back to
// its last consistent prefix.
func Open(dir string, metrics *obs.Registry) (*Store, *RecoveryReport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: creating checkpoint dir: %w", err)
	}
	s := &Store{
		dir:     dir,
		metrics: metrics,
		months:  make(map[int]*monthState),
		staged:  make(map[int]*monthState),
	}
	rep := &RecoveryReport{}
	recs, truncated, err := s.replayWAL()
	if err != nil {
		return nil, nil, err
	}
	rep.TruncatedBytes = truncated

	// Later records win: a re-ingested month supersedes its earlier commit.
	committed := make(map[int]walRecord)
	for _, r := range recs {
		switch r.Kind {
		case "month":
			committed[r.Month] = r
			rep.CleanShutdown = false
		case "shutdown":
			s.epoch = r.Epoch
			rep.CleanShutdown = true
		}
	}
	referenced := map[string]bool{}
	for _, r := range committed {
		referenced[r.File] = true
	}
	months := make([]int, 0, len(committed))
	for m := range committed {
		months = append(months, m)
	}
	sort.Ints(months)
	for _, m := range months {
		r := committed[m]
		st, err := s.loadMonthFile(r)
		if err != nil {
			rep.Dropped = append(rep.Dropped, DroppedMonth{Month: m, Reason: err.Error()})
			continue
		}
		s.months[m] = st
		rep.Months = append(rep.Months, m)
	}

	// Sweep orphans: temp files from interrupted writes and month files whose
	// WAL record never made it (crash between rename and WAL append).
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: scanning checkpoint dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if name == walName || e.IsDir() || referenced[name] {
			continue
		}
		var m int
		isTmp := len(name) > 5 && name[:5] == ".tmp-"
		isMonth := false
		if _, err := fmt.Sscanf(name, "month-%06d.ckpt", &m); err == nil {
			isMonth = true
		}
		if isTmp || isMonth {
			if err := os.Remove(filepath.Join(dir, name)); err == nil {
				rep.Orphans++
			}
		}
	}

	// Reopen the WAL for appending.
	s.wal, err = os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: opening WAL: %w", err)
	}
	rep.WALRecords = len(recs)
	if rep.Recovered() {
		metrics.Counter("serve/recoveries").Inc()
	}
	return s, rep, nil
}

// replayWAL reads every verifiable record and truncates the file after the
// last good one. A missing WAL is an empty store, not an error.
func (s *Store) replayWAL() ([]walRecord, int64, error) {
	path := filepath.Join(s.dir, walName)
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("serve: reading WAL: %w", err)
	}
	recs, good := parseWAL(b)
	var truncated int64
	if good < len(b) {
		truncated = int64(len(b) - good)
		if err := os.Truncate(path, int64(good)); err != nil {
			return nil, 0, fmt.Errorf("serve: truncating torn WAL tail: %w", err)
		}
	}
	return recs, truncated, nil
}

// parseWAL decodes the WAL's frames in order and returns their records and
// the length of the prefix they occupy. It stops at the first frame that is
// torn, fails its CRC or does not decode: everything from there on is
// untrusted.
func parseWAL(b []byte) (recs []walRecord, good int) {
	for good < len(b) {
		if len(b)-good < 8 {
			break // torn frame header
		}
		n := int(binary.LittleEndian.Uint32(b[good:]))
		sum := binary.LittleEndian.Uint32(b[good+4:])
		if n <= 0 || n > len(b)-good-8 {
			break // torn or nonsense payload length
		}
		payload := b[good+8 : good+8+n]
		if crc32.Checksum(payload, crcTable) != sum {
			break // corrupt record
		}
		var r walRecord
		if err := json.Unmarshal(payload, &r); err != nil {
			break
		}
		recs = append(recs, r)
		good += 8 + n
	}
	return recs, good
}

// loadMonthFile reads and doubly verifies one committed month: the file's
// own CRC trailer and the checksum recorded in its WAL entry must both hold.
func (s *Store) loadMonthFile(r walRecord) (*monthState, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, r.File))
	if err != nil {
		return nil, fmt.Errorf("unreadable: %v", err)
	}
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(b))
	}
	payload, trailer := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	sum := crc32.Checksum(payload, crcTable)
	if sum != trailer {
		return nil, fmt.Errorf("%w: file CRC %08x != trailer %08x", ErrCorrupt, sum, trailer)
	}
	if sum != r.CRC {
		return nil, fmt.Errorf("%w: file CRC %08x != manifest %08x", ErrCorrupt, sum, r.CRC)
	}
	st, err := decodeMonth(payload)
	if err != nil {
		return nil, err
	}
	if st.Month != r.Month {
		return nil, fmt.Errorf("%w: file says month %d, manifest says %d", ErrCorrupt, st.Month, r.Month)
	}
	return st, nil
}

// StageMonth attaches the raw records and vocabulary snapshot that SaveMonth
// will commit alongside the month's fitted state. The serving core stages
// every ingested month before analysis so a restart can rebuild the dataset
// from the store alone; batch callers skip staging and persist models only.
func (s *Store) StageMonth(month int, records *mic.Monthly, diseases, medicines []string, hospitals []mic.Hospital) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.staged[month] = &monthState{
		Month: month, HasRecords: true, Records: records,
		Diseases: diseases, Medicines: medicines, Hospitals: hospitals,
	}
}

// Unstage discards a staged month that will not be committed (its ingest
// failed terminally before the model stage saved anything).
func (s *Store) Unstage(month int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.staged, month)
}

// LoadMonth implements trend.Checkpointer from the verified in-memory state.
func (s *Store) LoadMonth(month int) (trend.MonthCheckpoint, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.months[month]
	if !ok {
		return trend.MonthCheckpoint{}, false, nil
	}
	return trend.MonthCheckpoint{
		Month: month, DataHash: st.DataHash, Model: st.Model, Failure: st.Failure,
	}, true, nil
}

// SaveMonth implements trend.Checkpointer: it merges the checkpoint with any
// staged records and runs the two-phase commit — month file (write tmp,
// fsync, rename, fsync dir), then WAL append (fsynced). Only after the WAL
// record is durable is the month visible to recovery.
func (s *Store) SaveMonth(cp trend.MonthCheckpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.staged[cp.Month]
	if st == nil {
		st = &monthState{Month: cp.Month}
		if cur := s.months[cp.Month]; cur != nil {
			// A refit of a committed month (its checkpoint failed to load)
			// keeps the committed records section: without it recovery would
			// end the servable prefix here. Copied, so a failed commit leaves
			// the committed state as it was.
			prev := *cur
			st = &prev
		}
	}
	st.DataHash = cp.DataHash
	st.Model = cp.Model
	st.Failure = cp.Failure

	if err := faultpoint.Inject("serve/month-write", monthFile(cp.Month)); err != nil {
		return err
	}
	payload := encodeMonth(st)
	sum := crc32.Checksum(payload, crcTable)
	file := monthFile(cp.Month)
	tmp := filepath.Join(s.dir, ".tmp-"+file)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("serve: writing month checkpoint: %w", err)
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], sum)
	if _, err = f.Write(payload); err == nil {
		_, err = f.Write(trailer[:])
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: writing month checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, file)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: committing month checkpoint: %w", err)
	}
	s.syncDir()
	if s.onCommit != nil {
		s.onCommit(cp.Month, "checkpoint")
	}

	// Crash window: the month file exists but the WAL does not reference it.
	// Recovery treats it as an orphan and deletes it — the commit point is
	// the WAL append below.
	faultpoint.Check("serve/crash-pre-wal", file)

	if err := s.appendWAL(walRecord{Kind: "month", Month: cp.Month, File: file, CRC: sum}); err != nil {
		return err
	}
	if s.onCommit != nil {
		s.onCommit(cp.Month, "wal")
	}
	s.months[cp.Month] = st
	delete(s.staged, cp.Month)
	return nil
}

// appendWAL frames, appends, and fsyncs one manifest record. The
// serve/wal-torn fault point simulates a crash mid-append by writing only
// half the frame before panicking — exactly the torn tail replayWAL must
// truncate.
func (s *Store) appendWAL(r walRecord) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("serve: encoding WAL record: %w", err)
	}
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	frame = append(frame, payload...)
	if faultpoint.Check("serve/wal-torn", r.Kind) {
		s.wal.Write(frame[:len(frame)/2])
		s.wal.Sync()
		panic(fmt.Sprintf("serve: injected crash mid WAL append (%s)", r.Kind))
	}
	if err := faultpoint.Inject("serve/wal-append", r.Kind); err != nil {
		return err
	}
	if _, err := s.wal.Write(frame); err != nil {
		return fmt.Errorf("serve: appending WAL record: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("serve: syncing WAL: %w", err)
	}
	return nil
}

// syncDir fsyncs the directory so a rename survives power loss; best-effort
// on filesystems that reject directory fsync.
func (s *Store) syncDir() {
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// MarkCleanShutdown appends the shutdown marker recording the final epoch —
// the last step of a graceful drain.
func (s *Store) MarkCleanShutdown(epoch int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch = epoch
	return s.appendWAL(walRecord{Kind: "shutdown", Epoch: epoch})
}

// Close releases the WAL handle. It does not write a shutdown marker; call
// MarkCleanShutdown first when the shutdown is orderly.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// Months returns the committed month indices, ascending.
func (s *Store) Months() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.months))
	for m := range s.months {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// LastEpoch returns the epoch recorded by the most recent clean shutdown (0
// when the store has never drained cleanly).
func (s *Store) LastEpoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// RebuildDataset reconstructs the serving dataset from the longest
// contiguous prefix of committed months that carry records, applying the
// latest vocabulary snapshot (vocabularies only grow, so the newest
// restorable month's snapshot covers every earlier month). Months beyond the
// prefix — committed out of order, or model-only batch checkpoints — are
// reported as unservable and left for the checkpointer to reuse if their
// data reappears.
func (s *Store) RebuildDataset() (*mic.Dataset, []DroppedMonth) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var unservable []DroppedMonth
	months := make([]int, 0, len(s.months))
	for m := range s.months {
		months = append(months, m)
	}
	sort.Ints(months)
	prefix := 0
	for _, m := range months {
		if m != prefix || !s.months[m].HasRecords {
			break
		}
		prefix++
	}
	for _, m := range months {
		if m >= prefix || !s.months[m].HasRecords {
			reason := "beyond contiguous prefix"
			if !s.months[m].HasRecords {
				reason = "no records section (batch checkpoint)"
			}
			if m < prefix {
				continue
			}
			unservable = append(unservable, DroppedMonth{Month: m, Reason: reason})
		}
	}
	ds := mic.NewDataset()
	if prefix == 0 {
		return ds, unservable
	}
	last := s.months[prefix-1]
	for _, code := range last.Diseases {
		ds.Diseases.Intern(code)
	}
	for _, code := range last.Medicines {
		ds.Medicines.Intern(code)
	}
	ds.Hospitals = append([]mic.Hospital(nil), last.Hospitals...)
	for m := 0; m < prefix; m++ {
		ds.Months = append(ds.Months, s.months[m].Records)
	}
	return ds, unservable
}

func monthFile(m int) string { return fmt.Sprintf("month-%06d.ckpt", m) }
