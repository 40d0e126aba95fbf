package mic

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// The on-disk format is line-oriented JSON (JSONL), optionally gzipped:
// a header line describing vocabularies and hospitals, followed by one line
// per record. Line-oriented framing keeps memory flat when streaming
// population-scale corpora.

type fileHeader struct {
	Version   int        `json:"version"`
	Months    int        `json:"months"`
	Diseases  []string   `json:"diseases"`
	Medicines []string   `json:"medicines"`
	Hospitals []Hospital `json:"hospitals"`
}

type fileRecord struct {
	Month     int          `json:"t"`
	Hospital  int32        `json:"h"`
	Patient   int32        `json:"p"`
	Diseases  [][2]int32   `json:"d"` // pairs of (disease id, count)
	Medicines []MedicineID `json:"m"`
}

const codecVersion = 1

// Write serializes the dataset to w as JSONL.
func Write(w io.Writer, d *Dataset) error {
	sw, err := NewJSONLStreamWriter(w, NewStreamMeta(d))
	if err != nil {
		return err
	}
	for _, m := range d.Months {
		if err := sw.WriteMonth(m); err != nil {
			return err
		}
	}
	return sw.Close()
}

// jsonlStreamWriter emits the JSONL encoding one month at a time. The
// fileRecord's disease pair slice is scratch reused across records — the
// encoder reads it synchronously — so a population-scale write allocates per
// flush, not per record.
type jsonlStreamWriter struct {
	bw      *bufio.Writer
	enc     *json.Encoder
	meta    StreamMeta
	next    int
	scratch [][2]int32
}

// NewJSONLStreamWriter writes the JSONL header for meta and returns a writer
// that streams months in index order. The emitted bytes are exactly Write's.
func NewJSONLStreamWriter(w io.Writer, meta StreamMeta) (StreamWriter, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := fileHeader{
		Version:   codecVersion,
		Months:    meta.Months,
		Diseases:  meta.Diseases,
		Medicines: meta.Medicines,
		Hospitals: meta.Hospitals,
	}
	if err := enc.Encode(hdr); err != nil {
		return nil, fmt.Errorf("mic: encoding header: %w", err)
	}
	return &jsonlStreamWriter{bw: bw, enc: enc, meta: meta}, nil
}

func (sw *jsonlStreamWriter) WriteMonth(m *Monthly) error {
	if m == nil {
		return errors.New("mic: jsonl writer: nil month")
	}
	if m.Month != sw.next {
		return fmt.Errorf("mic: jsonl writer: month %d out of order (want %d)", m.Month, sw.next)
	}
	if sw.next >= sw.meta.Months {
		return fmt.Errorf("mic: jsonl writer: month %d beyond declared count %d", m.Month, sw.meta.Months)
	}
	sw.next++
	for i := range m.Records {
		r := &m.Records[i]
		fr := fileRecord{Month: m.Month, Hospital: int32(r.Hospital), Patient: r.Patient, Medicines: r.Medicines}
		if len(r.Diseases) > 0 {
			// Reuse the scratch pair slice across records (the encoder reads
			// it before returning); an empty bag stays nil so the emitted
			// bytes match the per-record-allocation writer exactly.
			sw.scratch = sw.scratch[:0]
			for _, dc := range r.Diseases {
				sw.scratch = append(sw.scratch, [2]int32{int32(dc.Disease), int32(dc.Count)})
			}
			fr.Diseases = sw.scratch
		}
		if err := sw.enc.Encode(fr); err != nil {
			return fmt.Errorf("mic: encoding record: %w", err)
		}
	}
	return nil
}

func (sw *jsonlStreamWriter) Close() error {
	if sw.next != sw.meta.Months {
		return fmt.Errorf("mic: jsonl writer: wrote %d of %d declared months", sw.next, sw.meta.Months)
	}
	return sw.bw.Flush()
}

// ReadOptions controls how the decoder treats malformed record lines.
type ReadOptions struct {
	// Strict aborts the load on the first malformed record line. The
	// default (false) skips and counts malformed lines — at population
	// scale, a handful of corrupt claims must not discard the corpus.
	Strict bool
	// MaxBytes, when positive, caps the decoded bytes a read consumes —
	// counted after gunzip for a gzipped stream — so a small compressed
	// body cannot inflate without bound. The read that crosses it fails
	// with an error wrapping ErrTooLarge. Zero means unlimited. It applies
	// to JSONL reads and to buffered columnar stream reads; columnar files
	// are read in place.
	MaxBytes int64
}

// ErrTooLarge is wrapped by a read that decodes more than
// ReadOptions.MaxBytes bytes.
var ErrTooLarge = errors.New("mic: decoded input exceeds the size cap")

// capReader passes through at most limit bytes of r and fails the read
// that would cross the cap with ErrTooLarge.
type capReader struct {
	r     io.Reader
	limit int64
	left  int64
}

// capDecoded wraps r in a capReader when limit is positive.
func capDecoded(r io.Reader, limit int64) io.Reader {
	if limit <= 0 {
		return r
	}
	return &capReader{r: r, limit: limit, left: limit}
}

func (c *capReader) Read(p []byte) (int, error) {
	if c.left < 0 {
		return 0, c.tooLarge()
	}
	// Ask for one byte past the allowance so a stream of exactly limit
	// bytes reads clean while a longer one is caught.
	if int64(len(p)) > c.left+1 {
		p = p[:c.left+1]
	}
	n, err := c.r.Read(p)
	if int64(n) <= c.left {
		c.left -= int64(n)
		return n, err
	}
	n, c.left = int(c.left), -1
	return n, c.tooLarge()
}

func (c *capReader) tooLarge() error {
	return fmt.Errorf("%w (%d bytes)", ErrTooLarge, c.limit)
}

// ReadStats reports what a lenient read skipped.
type ReadStats struct {
	// SkippedLines counts malformed record lines that were dropped.
	SkippedLines int
	// FirstError describes the first skipped line (nil when none).
	FirstError error
}

// Read deserializes a dataset previously produced by Write, skipping and
// counting malformed record lines; use ReadWithStats to observe the skip
// count or to restore fail-fast behavior.
func Read(r io.Reader) (*Dataset, error) {
	d, _, err := ReadWithStats(r, ReadOptions{})
	return d, err
}

// ReadWithStats deserializes a dataset, reporting skipped lines. A corrupt
// header, an I/O error, or (under Strict) any malformed record line aborts
// the load; otherwise malformed lines — bad JSON, out-of-range months,
// records referencing unknown vocabulary entries or hospitals — are dropped
// and counted, keeping the rest of the corpus usable.
func ReadWithStats(r io.Reader, opts ReadOptions) (*Dataset, ReadStats, error) {
	var stats ReadStats
	br := bufio.NewReaderSize(capDecoded(r, opts.MaxBytes), readBufferSize)
	headerLine, rerr := readLine(br)
	// A failed read reports its own error, not the parse error of the
	// partial line it left.
	if rerr != nil && (len(headerLine) == 0 || rerr != io.EOF) {
		return nil, stats, fmt.Errorf("mic: decoding header: %w", rerr)
	}
	var hdr fileHeader
	if err := json.Unmarshal(headerLine, &hdr); err != nil {
		return nil, stats, fmt.Errorf("mic: decoding header: %w", err)
	}
	if hdr.Version != codecVersion {
		return nil, stats, fmt.Errorf("mic: unsupported file version %d", hdr.Version)
	}
	if hdr.Months < 0 {
		return nil, stats, fmt.Errorf("mic: negative month count %d", hdr.Months)
	}
	d := NewDataset()
	for _, code := range hdr.Diseases {
		d.Diseases.Intern(code)
	}
	for _, code := range hdr.Medicines {
		d.Medicines.Intern(code)
	}
	d.Hospitals = hdr.Hospitals
	d.Months = make([]*Monthly, hdr.Months)
	for t := range d.Months {
		d.Months[t] = &Monthly{Month: t}
	}
	dec := recordDecoder{d: d, months: hdr.Months}
	lineNo := 1
	for rerr == nil {
		var line []byte
		line, rerr = readLine(br)
		if rerr != nil && rerr != io.EOF {
			break
		}
		lineNo++
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if err := dec.decode(line); err != nil {
			if opts.Strict {
				return nil, stats, fmt.Errorf("mic: line %d: %w", lineNo, err)
			}
			stats.SkippedLines++
			if stats.FirstError == nil {
				stats.FirstError = fmt.Errorf("mic: line %d: %w", lineNo, err)
			}
		}
	}
	if rerr != io.EOF {
		return nil, stats, fmt.Errorf("mic: reading records: %w", rerr)
	}
	return d, stats, nil
}

// maxLineBytes caps one JSONL line, not counting its newline: far above
// any real record line, and above the header of a vocabulary with tens of
// thousands of hospitals. It bounds what the decoder buffers for one line,
// so a body that is a single huge line cannot cost twice its size in
// memory.
const maxLineBytes = 4 << 20

// readBufferSize sizes the one buffered reader a JSONL read uses; readLine
// joins a longer line from fragments.
const readBufferSize = 64 << 10

// readLine returns the next line (without framing requirements on the final
// line); data may accompany io.EOF. A line that fits in br's buffer is
// returned in place, valid until the next read; only a longer one is
// copied. A line longer than maxLineBytes fails with an error wrapping
// ErrTooLarge, whatever the read's strictness.
func readLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		n := len(line) + len(frag)
		if err == nil {
			n-- // the newline
		}
		if n > maxLineBytes {
			return nil, fmt.Errorf("%w: line longer than %d bytes", ErrTooLarge, maxLineBytes)
		}
		if err != bufio.ErrBufferFull && line == nil {
			return frag, err
		}
		line = append(line, frag...)
		if err != bufio.ErrBufferFull {
			return line, err
		}
	}
}

// parseRecordLine parses one record line with encoding/json, the reference
// for the fast path in recordDecoder and its fallback.
func parseRecordLine(line []byte) (int, Record, error) {
	var fr fileRecord
	if err := json.Unmarshal(line, &fr); err != nil {
		return 0, Record{}, err
	}
	rec := Record{Hospital: HospitalID(fr.Hospital), Patient: fr.Patient, Medicines: fr.Medicines}
	for _, pair := range fr.Diseases {
		rec.Diseases = append(rec.Diseases, DiseaseCount{Disease: DiseaseID(pair[0]), Count: int(pair[1])})
	}
	return fr.Month, rec, nil
}

// appendRecord validates a decoded record of month t and appends it to that
// month. A month's first record sizes its Records for the records month t-1
// holds by then, plus an eighth, so months written in order and of similar
// size are copied once rather than at every step of append's growth. Each
// month lends its count to one other month only, so the capacity reserved
// this way stays within 1.125× the records decoded.
func appendRecord(d *Dataset, months, t int, rec Record) error {
	if t < 0 || t >= months {
		return fmt.Errorf("record month %d out of range [0,%d)", t, months)
	}
	if err := d.CheckRecord(&rec); err != nil {
		return err
	}
	m := d.Months[t]
	if cap(m.Records) == 0 && t > 0 {
		if n := len(d.Months[t-1].Records); n > 0 {
			m.Records = make([]Record, 0, n+n/8)
		}
	}
	m.Records = append(m.Records, rec)
	return nil
}

// WriteFile writes the dataset to path, gzip-compressing when the path ends
// in ".gz".
func WriteFile(path string, d *Dataset) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	var w io.Writer = f
	if strings.HasSuffix(path, ".gz") {
		gz := gzip.NewWriter(f)
		defer func() {
			if cerr := gz.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = gz
	}
	return Write(w, d)
}

// ReadFile reads a dataset from path, transparently decompressing ".gz"
// files. Malformed record lines are skipped; use ReadFileWithStats to
// observe the skip count or enforce strictness.
func ReadFile(path string) (*Dataset, error) {
	d, _, err := ReadFileWithStats(path, ReadOptions{})
	return d, err
}

// ReadFileWithStats reads a dataset from path with explicit lenient/strict
// handling of malformed record lines, transparently decompressing ".gz"
// files.
func ReadFileWithStats(path string, opts ReadOptions) (*Dataset, ReadStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, ReadStats{}, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, ReadStats{}, err
		}
		defer gz.Close()
		r = gz
	}
	return ReadWithStats(r, opts)
}
