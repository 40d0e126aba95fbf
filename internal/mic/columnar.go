package mic

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"sync"

	"mictrend/internal/par"
)

// MICC1 is the compact binary columnar format for monthly MIC datasets. A
// file is one CRC-guarded header (vocabularies and the hospital table,
// interned once), followed by one independently decodable block per month,
// and a footer index that lets a reader fan decoding out across blocks. The
// layout (see DESIGN.md "MICC1 columnar format" for the full specification):
//
//	magic   "MICC1\n"
//	header  uvarint length ‖ payload ‖ crc32c(payload)
//	blocks  flate(columns), one per month, back to back
//	footer  payload ‖ … (block index: month, offset, sizes, records, CRC)
//	trailer footer offset (8B LE) ‖ crc32c(footer) ‖ "MICC1END"
//
// Inside a block the records of the month are stored column-major as
// contiguous homogeneous streams: the hospital column as plain uvarints, the
// patient column as zigzag varints, then for each bag kind the per-record
// lengths, the ids (zigzag-delta within each record's bag), and — for
// diseases — the counts as their own run of uvarints. Record order within a
// month is preserved exactly, so a JSONL → columnar → JSONL round trip
// reproduces Write's bytes.

const (
	columnarMagic   = "MICC1\n"
	columnarTrailer = "MICC1END"
	columnarVersion = 1

	// trailerSize is the fixed byte length of the end-of-file trailer:
	// 8 (footer offset) + 4 (footer CRC) + 8 (trailer magic).
	trailerSize = 8 + 4 + 8

	// maxHeaderLen bounds the header payload a reader will buffer, so a
	// corrupt length varint cannot demand an absurd allocation.
	maxHeaderLen = 1 << 28
	// maxBlockRaw bounds one decompressed month block.
	maxBlockRaw = 1 << 31
	// maxFlateRatio bounds how much a block may claim to expand under
	// decompression. DEFLATE tops out near 1032:1, so a rawLen beyond this
	// multiple of the stored compressed length is provably corrupt — the
	// reader rejects it before allocating anything.
	maxFlateRatio = 1040
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrNotColumnar reports that the input does not start with the MICC1 magic.
var ErrNotColumnar = errors.New("mic: not a MICC1 columnar file")

// blockInfo is one footer index entry: where month Month's block lives and
// how to verify and size its decoding.
type blockInfo struct {
	Month   int
	Offset  int64
	Len     int64 // compressed length on disk
	RawLen  int64 // decompressed column bytes
	Records int
	CRC     uint32 // crc32c of the compressed bytes
}

// --- varint encoding helpers ---

// colEncoder accumulates one block's column bytes.
type colEncoder struct {
	buf []byte
	tmp [binary.MaxVarintLen64]byte
}

func (e *colEncoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.buf = append(e.buf, e.tmp[:n]...)
}

func (e *colEncoder) zigzag(v int64) {
	n := binary.PutVarint(e.tmp[:], v)
	e.buf = append(e.buf, e.tmp[:n]...)
}

func (e *colEncoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// colDecoder reads varints from a block payload with explicit bounds checks:
// every malformed or truncated sequence surfaces as an error, never a panic.
type colDecoder struct {
	buf []byte
	pos int
}

func (d *colDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated or malformed uvarint at offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *colDecoder) zigzag() (int64, error) {
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated or malformed varint at offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *colDecoder) string(maxLen int) (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(maxLen) || d.pos+int(n) > len(d.buf) {
		return "", fmt.Errorf("string length %d exceeds remaining payload at offset %d", n, d.pos)
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

func (d *colDecoder) remaining() int { return len(d.buf) - d.pos }

// --- writer ---

// ColumnarWriterOptions tunes the columnar encoder.
type ColumnarWriterOptions struct {
	// Level is the flate compression level for month blocks
	// (flate.BestSpeed … flate.BestCompression). 0 selects
	// flate.DefaultCompression.
	Level int
	// Workers bounds how many month blocks are compressed concurrently while
	// the writer emits them in month order (output bytes are identical for
	// every setting). 0 means GOMAXPROCS; 1 compresses inline.
	Workers int
}

func (o ColumnarWriterOptions) withDefaults() ColumnarWriterOptions {
	if o.Level == 0 {
		o.Level = flate.DefaultCompression
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// ColumnarWriter streams a dataset into the MICC1 format one month at a
// time, so population-scale corpora never have to materialize in memory.
// Months must arrive in index order starting at 0 and exactly Meta.Months of
// them must be written before Close. Block compression is pipelined across
// Workers goroutines; the emitted bytes are identical for any worker count.
type ColumnarWriter struct {
	w      io.Writer
	meta   StreamMeta
	opts   ColumnarWriterOptions
	offset int64
	next   int // next expected month index
	blocks []blockInfo

	// Compression pipeline: WriteMonth encodes the raw columns and queues a
	// promise; pool workers compress; a single drain goroutine dequeues
	// promises in submission order and appends to w.
	queue   chan *blockPromise
	jobs    chan *blockPromise
	drained chan struct{}
	wg      sync.WaitGroup

	mu       sync.Mutex
	writeErr error

	closed bool
}

type blockPromise struct {
	month   int
	records int
	raw     []byte
	rawSize int64
	done    chan struct{}
	comp    []byte
	err     error
}

// NewColumnarWriter writes the magic and header for meta and returns a
// writer ready for WriteMonth. The vocabularies and hospital table are fixed
// up front — exactly like the JSONL header — so every block can encode bare
// integer ids.
func NewColumnarWriter(w io.Writer, meta StreamMeta, opts ColumnarWriterOptions) (*ColumnarWriter, error) {
	if meta.Months < 0 {
		return nil, fmt.Errorf("mic: columnar writer: negative month count %d", meta.Months)
	}
	cw := &ColumnarWriter{w: w, meta: meta, opts: opts.withDefaults()}
	if _, err := io.WriteString(w, columnarMagic); err != nil {
		return nil, fmt.Errorf("mic: writing columnar magic: %w", err)
	}
	cw.offset = int64(len(columnarMagic))

	var enc colEncoder
	enc.uvarint(columnarVersion)
	enc.uvarint(uint64(meta.Months))
	enc.uvarint(uint64(len(meta.Diseases)))
	for _, c := range meta.Diseases {
		enc.bytes([]byte(c))
	}
	enc.uvarint(uint64(len(meta.Medicines)))
	for _, c := range meta.Medicines {
		enc.bytes([]byte(c))
	}
	enc.uvarint(uint64(len(meta.Hospitals)))
	for _, h := range meta.Hospitals {
		enc.bytes([]byte(h.Code))
		enc.bytes([]byte(h.City))
		enc.zigzag(int64(h.Beds))
	}
	var frame colEncoder
	frame.uvarint(uint64(len(enc.buf)))
	frame.buf = append(frame.buf, enc.buf...)
	frame.buf = binary.LittleEndian.AppendUint32(frame.buf, crc32.Checksum(enc.buf, castagnoli))
	if _, err := w.Write(frame.buf); err != nil {
		return nil, fmt.Errorf("mic: writing columnar header: %w", err)
	}
	cw.offset += int64(len(frame.buf))

	// Start the compression pipeline.
	cw.queue = make(chan *blockPromise, cw.opts.Workers*2)
	cw.jobs = make(chan *blockPromise, cw.opts.Workers*2)
	cw.drained = make(chan struct{})
	for i := 0; i < cw.opts.Workers; i++ {
		cw.wg.Add(1)
		go func() {
			defer cw.wg.Done()
			for p := range cw.jobs {
				p.comp, p.err = compressBlock(p.raw, cw.opts.Level)
				p.raw = nil
				close(p.done)
			}
		}()
	}
	go cw.drain()
	return cw, nil
}

// drain appends compressed blocks in submission (month) order and records
// their index entries. It is the only goroutine touching w after the header.
func (cw *ColumnarWriter) drain() {
	defer close(cw.drained)
	for p := range cw.queue {
		<-p.done
		err := p.err
		if err == nil && cw.failed() == nil {
			if _, werr := cw.w.Write(p.comp); werr != nil {
				err = fmt.Errorf("mic: writing month %d block: %w", p.month, werr)
			} else {
				cw.blocks = append(cw.blocks, blockInfo{
					Month:   p.month,
					Offset:  cw.offset,
					Len:     int64(len(p.comp)),
					RawLen:  p.rawSize,
					Records: p.records,
					CRC:     crc32.Checksum(p.comp, castagnoli),
				})
				cw.offset += int64(len(p.comp))
			}
		}
		if err != nil {
			cw.fail(err)
		}
	}
}

func (cw *ColumnarWriter) fail(err error) {
	cw.mu.Lock()
	if cw.writeErr == nil {
		cw.writeErr = err
	}
	cw.mu.Unlock()
}

func (cw *ColumnarWriter) failed() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.writeErr
}

// WriteMonth encodes and queues one month. m.Month must equal the number of
// months already written. Records are validated against the header
// vocabularies so every emitted file decodes cleanly.
func (cw *ColumnarWriter) WriteMonth(m *Monthly) error {
	if cw.closed {
		return errors.New("mic: columnar writer: WriteMonth after Close")
	}
	if err := cw.failed(); err != nil {
		return err
	}
	if m == nil {
		return errors.New("mic: columnar writer: nil month")
	}
	if m.Month != cw.next {
		return fmt.Errorf("mic: columnar writer: month %d out of order (want %d)", m.Month, cw.next)
	}
	if cw.next >= cw.meta.Months {
		return fmt.Errorf("mic: columnar writer: month %d beyond declared count %d", m.Month, cw.meta.Months)
	}
	raw, err := encodeBlock(m, cw.meta)
	if err != nil {
		return err
	}
	p := &blockPromise{
		month:   m.Month,
		records: len(m.Records),
		raw:     raw,
		rawSize: int64(len(raw)),
		done:    make(chan struct{}),
	}
	cw.next++
	cw.queue <- p
	cw.jobs <- p
	return nil
}

// Close flushes the pipeline, writes the footer index and trailer, and
// returns the first error encountered anywhere in the write.
func (cw *ColumnarWriter) Close() error {
	if cw.closed {
		return nil
	}
	cw.closed = true
	close(cw.jobs)
	close(cw.queue)
	cw.wg.Wait()
	<-cw.drained
	if err := cw.failed(); err != nil {
		return err
	}
	if cw.next != cw.meta.Months {
		return fmt.Errorf("mic: columnar writer: wrote %d of %d declared months", cw.next, cw.meta.Months)
	}
	var enc colEncoder
	enc.uvarint(uint64(len(cw.blocks)))
	for _, b := range cw.blocks {
		enc.uvarint(uint64(b.Month))
		enc.uvarint(uint64(b.Offset))
		enc.uvarint(uint64(b.Len))
		enc.uvarint(uint64(b.RawLen))
		enc.uvarint(uint64(b.Records))
		enc.uvarint(uint64(b.CRC))
	}
	footerOffset := cw.offset
	if _, err := cw.w.Write(enc.buf); err != nil {
		return fmt.Errorf("mic: writing columnar footer: %w", err)
	}
	var trailer [trailerSize]byte
	binary.LittleEndian.PutUint64(trailer[0:8], uint64(footerOffset))
	binary.LittleEndian.PutUint32(trailer[8:12], crc32.Checksum(enc.buf, castagnoli))
	copy(trailer[12:], columnarTrailer)
	if _, err := cw.w.Write(trailer[:]); err != nil {
		return fmt.Errorf("mic: writing columnar trailer: %w", err)
	}
	return nil
}

// encodeBlock lays the month's records out column-major and returns the raw
// (uncompressed) block payload. Each column is one contiguous homogeneous
// stream — bag ids never interleave with counts or lengths — so flate's LZ
// stage can match recurring bags across records and its Huffman stage sees
// a single byte distribution per stream.
func encodeBlock(m *Monthly, meta StreamMeta) ([]byte, error) {
	var enc colEncoder
	// Size hint: ~12 bytes per record for typical bags.
	enc.buf = make([]byte, 0, 16+12*len(m.Records))
	enc.uvarint(uint64(len(m.Records)))
	// Hospital column: plain uvarints (visits hop between hospitals, so
	// deltas would only widen the values).
	for i := range m.Records {
		r := &m.Records[i]
		h := int64(r.Hospital)
		if h < 0 || int(h) >= len(meta.Hospitals) {
			return nil, fmt.Errorf("mic: month %d record %d: hospital %d out of range", m.Month, i, h)
		}
		enc.uvarint(uint64(h))
	}
	// Patient column: zigzag varints (patient may be -1 for unknown).
	for i := range m.Records {
		enc.zigzag(int64(m.Records[i].Patient))
	}
	// Disease bag lengths.
	for i := range m.Records {
		enc.uvarint(uint64(len(m.Records[i].Diseases)))
	}
	// Disease id stream: ids delta-coded within each record's bag (bags are
	// typically ascending).
	for i := range m.Records {
		prev := int64(0)
		for _, dc := range m.Records[i].Diseases {
			id := int64(dc.Disease)
			if id < 0 || int(id) >= len(meta.Diseases) {
				return nil, fmt.Errorf("mic: month %d record %d: disease %d out of range", m.Month, i, id)
			}
			enc.zigzag(id - prev)
			prev = id
		}
	}
	// Disease count stream (separate from the ids: counts are almost all 1-2,
	// so on their own they collapse to runs).
	for i := range m.Records {
		for _, dc := range m.Records[i].Diseases {
			if dc.Count <= 0 {
				return nil, fmt.Errorf("mic: month %d record %d: non-positive disease count %d", m.Month, i, dc.Count)
			}
			enc.uvarint(uint64(dc.Count))
		}
	}
	// Medicine bag lengths.
	for i := range m.Records {
		enc.uvarint(uint64(len(m.Records[i].Medicines)))
	}
	// Medicine id stream.
	for i := range m.Records {
		prev := int64(0)
		for _, med := range m.Records[i].Medicines {
			id := int64(med)
			if id < 0 || int(id) >= len(meta.Medicines) {
				return nil, fmt.Errorf("mic: month %d record %d: medicine %d out of range", m.Month, i, id)
			}
			enc.zigzag(id - prev)
			prev = id
		}
	}
	return enc.buf, nil
}

// compressBlock flate-compresses one raw block payload.
func compressBlock(raw []byte, level int) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(len(raw)/3 + 64)
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		return nil, fmt.Errorf("mic: flate writer: %w", err)
	}
	if _, err := fw.Write(raw); err != nil {
		return nil, fmt.Errorf("mic: compressing block: %w", err)
	}
	if err := fw.Close(); err != nil {
		return nil, fmt.Errorf("mic: compressing block: %w", err)
	}
	return buf.Bytes(), nil
}

// --- reader ---

// ColumnarFile is an open MICC1 file handle: the decoded header plus the
// block index, with months decoded on demand. ReadMonth is safe for
// concurrent use, which is what ReadColumnar's parallel fan-out relies on.
type ColumnarFile struct {
	r      io.ReaderAt
	closer io.Closer
	meta   StreamMeta
	blocks []blockInfo // indexed by month
}

// OpenColumnarFile opens path and decodes its header and footer index.
func OpenColumnarFile(path string) (*ColumnarFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	cf, err := OpenColumnar(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	cf.closer = f
	return cf, nil
}

// OpenColumnar decodes the header and footer index of a MICC1 image of the
// given size. The ReaderAt must serve concurrent reads (os.File and
// bytes.Reader both do).
func OpenColumnar(r io.ReaderAt, size int64) (*ColumnarFile, error) {
	// Magic.
	magic := make([]byte, len(columnarMagic))
	if _, err := io.ReadFull(io.NewSectionReader(r, 0, int64(len(magic))), magic); err != nil {
		return nil, ErrNotColumnar
	}
	if string(magic) != columnarMagic {
		return nil, ErrNotColumnar
	}
	if size < int64(len(columnarMagic))+trailerSize {
		return nil, errors.New("mic: columnar file truncated before trailer")
	}
	// Trailer.
	var trailer [trailerSize]byte
	if _, err := r.ReadAt(trailer[:], size-trailerSize); err != nil {
		return nil, fmt.Errorf("mic: reading columnar trailer: %w", err)
	}
	if string(trailer[12:]) != columnarTrailer {
		return nil, errors.New("mic: columnar trailer magic missing (truncated or torn file)")
	}
	footerOffset := int64(binary.LittleEndian.Uint64(trailer[0:8]))
	footerCRC := binary.LittleEndian.Uint32(trailer[8:12])
	footerEnd := size - trailerSize
	if footerOffset < int64(len(columnarMagic)) || footerOffset > footerEnd {
		return nil, fmt.Errorf("mic: columnar footer offset %d out of range", footerOffset)
	}
	footer := make([]byte, footerEnd-footerOffset)
	if _, err := r.ReadAt(footer, footerOffset); err != nil {
		return nil, fmt.Errorf("mic: reading columnar footer: %w", err)
	}
	if crc32.Checksum(footer, castagnoli) != footerCRC {
		return nil, errors.New("mic: columnar footer CRC mismatch")
	}

	// Header.
	meta, headerEnd, err := readColumnarHeader(r, size)
	if err != nil {
		return nil, err
	}

	// Footer index.
	dec := &colDecoder{buf: footer}
	n, err := dec.uvarint()
	if err != nil {
		return nil, fmt.Errorf("mic: columnar footer: %w", err)
	}
	if n != uint64(meta.Months) {
		return nil, fmt.Errorf("mic: columnar footer lists %d blocks for %d months", n, meta.Months)
	}
	blocks := make([]blockInfo, meta.Months)
	seen := make([]bool, meta.Months)
	for i := 0; i < int(n); i++ {
		var b blockInfo
		var v [6]uint64
		for j := range v {
			if v[j], err = dec.uvarint(); err != nil {
				return nil, fmt.Errorf("mic: columnar footer entry %d: %w", i, err)
			}
		}
		b.Month = int(v[0])
		b.Offset = int64(v[1])
		b.Len = int64(v[2])
		b.RawLen = int64(v[3])
		b.Records = int(v[4])
		if v[5] > math.MaxUint32 {
			return nil, fmt.Errorf("mic: columnar footer entry %d: CRC out of range", i)
		}
		b.CRC = uint32(v[5])
		if b.Month < 0 || b.Month >= meta.Months || seen[b.Month] {
			return nil, fmt.Errorf("mic: columnar footer entry %d: bad or duplicate month %d", i, b.Month)
		}
		if b.Offset < headerEnd || b.Len < 0 || b.Offset+b.Len > footerOffset {
			return nil, fmt.Errorf("mic: columnar footer entry %d: block [%d,+%d) outside data region", i, b.Offset, b.Len)
		}
		if b.RawLen < 0 || b.RawLen > maxBlockRaw || b.RawLen > maxFlateRatio*(b.Len+64) {
			return nil, fmt.Errorf("mic: columnar footer entry %d: implausible raw length %d for %d compressed bytes", i, b.RawLen, b.Len)
		}
		// Every record occupies at least 4 bytes across its four columns
		// (hospital, patient, and the two bag lengths), so a record count
		// beyond rawLen/4 is provably corrupt — reject it before the decoder
		// allocates the record slice.
		if b.Records < 0 || int64(b.Records) > b.RawLen/4+1 {
			return nil, fmt.Errorf("mic: columnar footer entry %d: implausible record count %d for %d raw bytes", i, b.Records, b.RawLen)
		}
		seen[b.Month] = true
		blocks[b.Month] = b
	}
	return &ColumnarFile{r: r, meta: meta, blocks: blocks}, nil
}

// readColumnarHeader decodes the CRC-guarded header section and returns the
// stream metadata plus the file offset where blocks begin.
func readColumnarHeader(r io.ReaderAt, size int64) (StreamMeta, int64, error) {
	var meta StreamMeta
	pos := int64(len(columnarMagic))
	var lenBuf [binary.MaxVarintLen64]byte
	n, _ := r.ReadAt(lenBuf[:], pos)
	hlen, ln := binary.Uvarint(lenBuf[:n])
	if ln <= 0 {
		return meta, 0, errors.New("mic: columnar header: malformed length")
	}
	if hlen > maxHeaderLen || pos+int64(ln)+int64(hlen)+4 > size {
		return meta, 0, fmt.Errorf("mic: columnar header: implausible length %d", hlen)
	}
	pos += int64(ln)
	payload := make([]byte, hlen)
	if _, err := r.ReadAt(payload, pos); err != nil {
		return meta, 0, fmt.Errorf("mic: reading columnar header: %w", err)
	}
	pos += int64(hlen)
	var crcBuf [4]byte
	if _, err := r.ReadAt(crcBuf[:], pos); err != nil {
		return meta, 0, fmt.Errorf("mic: reading columnar header CRC: %w", err)
	}
	pos += 4
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(crcBuf[:]) {
		return meta, 0, errors.New("mic: columnar header CRC mismatch")
	}

	dec := &colDecoder{buf: payload}
	version, err := dec.uvarint()
	if err != nil {
		return meta, 0, fmt.Errorf("mic: columnar header: %w", err)
	}
	if version != columnarVersion {
		return meta, 0, fmt.Errorf("mic: unsupported columnar version %d", version)
	}
	months, err := dec.uvarint()
	if err != nil {
		return meta, 0, fmt.Errorf("mic: columnar header: %w", err)
	}
	if months > uint64(maxHeaderLen) {
		return meta, 0, fmt.Errorf("mic: columnar header: implausible month count %d", months)
	}
	meta.Months = int(months)
	if meta.Diseases, err = readStringList(dec, "disease"); err != nil {
		return meta, 0, err
	}
	if meta.Medicines, err = readStringList(dec, "medicine"); err != nil {
		return meta, 0, err
	}
	nh, err := dec.uvarint()
	if err != nil {
		return meta, 0, fmt.Errorf("mic: columnar header: %w", err)
	}
	if nh > uint64(dec.remaining()) {
		return meta, 0, fmt.Errorf("mic: columnar header: hospital count %d exceeds payload", nh)
	}
	meta.Hospitals = make([]Hospital, 0, nh)
	for i := 0; i < int(nh); i++ {
		var h Hospital
		if h.Code, err = dec.string(dec.remaining()); err != nil {
			return meta, 0, fmt.Errorf("mic: columnar header hospital %d: %w", i, err)
		}
		if h.City, err = dec.string(dec.remaining()); err != nil {
			return meta, 0, fmt.Errorf("mic: columnar header hospital %d: %w", i, err)
		}
		beds, err := dec.zigzag()
		if err != nil {
			return meta, 0, fmt.Errorf("mic: columnar header hospital %d: %w", i, err)
		}
		if beds < 0 || beds > math.MaxInt32 {
			return meta, 0, fmt.Errorf("mic: columnar header hospital %d: bed count %d out of range", i, beds)
		}
		h.Beds = int(beds)
		meta.Hospitals = append(meta.Hospitals, h)
	}
	if dec.remaining() != 0 {
		return meta, 0, fmt.Errorf("mic: columnar header: %d trailing bytes", dec.remaining())
	}
	return meta, pos, nil
}

func readStringList(dec *colDecoder, what string) ([]string, error) {
	n, err := dec.uvarint()
	if err != nil {
		return nil, fmt.Errorf("mic: columnar header: %w", err)
	}
	if n > uint64(dec.remaining()) {
		return nil, fmt.Errorf("mic: columnar header: %s count %d exceeds payload", what, n)
	}
	out := make([]string, 0, n)
	for i := 0; i < int(n); i++ {
		s, err := dec.string(dec.remaining())
		if err != nil {
			return nil, fmt.Errorf("mic: columnar header %s %d: %w", what, i, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// Meta returns the file's stream metadata (vocabulary codes in id order and
// the hospital table).
func (cf *ColumnarFile) Meta() StreamMeta { return cf.meta }

// Months returns the number of month blocks.
func (cf *ColumnarFile) Months() int { return len(cf.blocks) }

// MonthRecords returns month t's record count straight from the index,
// without decoding the block.
func (cf *ColumnarFile) MonthRecords(t int) int { return cf.blocks[t].Records }

// Close releases the underlying file when the handle owns one.
func (cf *ColumnarFile) Close() error {
	if cf.closer != nil {
		return cf.closer.Close()
	}
	return nil
}

// ReadMonth decodes month t's block: CRC check, bounded decompression, then
// column decoding with every id validated against the header vocabularies.
// Safe for concurrent use.
func (cf *ColumnarFile) ReadMonth(t int) (*Monthly, error) {
	if t < 0 || t >= len(cf.blocks) {
		return nil, fmt.Errorf("mic: month %d out of range [0,%d)", t, len(cf.blocks))
	}
	return cf.readMonth(t, new(blockScratch))
}

// blockScratch is the reusable working memory of one block decoder: every
// buffer a block passes through on its way to records. A decoded Monthly
// never points into it, so one scratch serves block after block.
type blockScratch struct {
	comp []byte // the compressed block
	raw  []byte // the decompressed block, one byte longer than the index says
	src  bytes.Reader
	fr   io.ReadCloser // flate reader, re-armed through flate.Resetter
	lens []uint64      // one bag-length column: diseases, then medicines
}

// resized returns buf with length n, reusing its array when it is big
// enough.
func resized[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n)
	}
	return buf[:n]
}

// readMonth decodes month t's block (t in range) through s.
func (cf *ColumnarFile) readMonth(t int, s *blockScratch) (*Monthly, error) {
	b := cf.blocks[t]
	s.comp = resized(s.comp, int(b.Len))
	if _, err := cf.r.ReadAt(s.comp, b.Offset); err != nil {
		return nil, fmt.Errorf("mic: reading month %d block: %w", t, err)
	}
	if crc32.Checksum(s.comp, castagnoli) != b.CRC {
		return nil, fmt.Errorf("mic: month %d block CRC mismatch", t)
	}
	s.src.Reset(s.comp)
	if s.fr == nil {
		s.fr = flate.NewReader(&s.src)
	} else if err := s.fr.(flate.Resetter).Reset(&s.src, nil); err != nil {
		return nil, fmt.Errorf("mic: decompressing month %d block: %w", t, err)
	}
	// Read at most RawLen+1 bytes: a stream longer than the index claims is
	// corrupt, and the bound keeps a lying block from allocating beyond the
	// indexed (and plausibility-checked) size.
	s.raw = resized(s.raw, int(b.RawLen)+1)
	n := 0
	for n < len(s.raw) {
		k, err := s.fr.Read(s.raw[n:])
		n += k
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("mic: decompressing month %d block: %w", t, err)
		}
	}
	if err := s.fr.Close(); err != nil {
		return nil, fmt.Errorf("mic: decompressing month %d block: %w", t, err)
	}
	if int64(n) != b.RawLen {
		return nil, fmt.Errorf("mic: month %d block decompressed to %d bytes, index says %d", t, n, b.RawLen)
	}
	return s.decodeBlock(s.raw[:n], t, b.Records, cf.meta)
}

// decodeBlock decodes one raw block payload into a Monthly. The records and
// their bags are allocated afresh; only the bag-length columns use s.
func (s *blockScratch) decodeBlock(raw []byte, month, records int, meta StreamMeta) (*Monthly, error) {
	dec := &colDecoder{buf: raw}
	n, err := dec.uvarint()
	if err != nil {
		return nil, fmt.Errorf("mic: month %d block: %w", month, err)
	}
	if n != uint64(records) {
		return nil, fmt.Errorf("mic: month %d block holds %d records, index says %d", month, n, records)
	}
	m := &Monthly{Month: month}
	if records == 0 {
		if dec.remaining() != 0 {
			return nil, fmt.Errorf("mic: month %d block: %d trailing bytes", month, dec.remaining())
		}
		return m, nil
	}
	m.Records = make([]Record, records)
	// Hospital column (plain uvarints).
	for i := range m.Records {
		h, err := dec.uvarint()
		if err != nil {
			return nil, fmt.Errorf("mic: month %d hospital column: %w", month, err)
		}
		if h >= uint64(len(meta.Hospitals)) {
			return nil, fmt.Errorf("mic: month %d record %d: hospital %d out of range", month, i, h)
		}
		m.Records[i].Hospital = HospitalID(h)
	}
	// Patient column (zigzag varints).
	for i := range m.Records {
		p, err := dec.zigzag()
		if err != nil {
			return nil, fmt.Errorf("mic: month %d patient column: %w", month, err)
		}
		if p < math.MinInt32 || p > math.MaxInt32 {
			return nil, fmt.Errorf("mic: month %d record %d: patient %d out of range", month, i, p)
		}
		m.Records[i].Patient = int32(p)
	}
	// Disease bag lengths; the sum bounds the entry allocation by bytes
	// actually present in the block (each entry is ≥2 bytes: one in the id
	// stream, one in the count stream).
	lens := resized(s.lens, records)
	s.lens = lens
	var dTotal uint64
	for i := range lens {
		if lens[i], err = dec.uvarint(); err != nil {
			return nil, fmt.Errorf("mic: month %d disease lengths: %w", month, err)
		}
		if lens[i] > uint64(dec.remaining()) {
			return nil, fmt.Errorf("mic: month %d record %d: disease bag length %d exceeds block", month, i, lens[i])
		}
		dTotal += lens[i]
	}
	if 2*dTotal > uint64(dec.remaining()) {
		return nil, fmt.Errorf("mic: month %d: %d disease entries exceed remaining block", month, dTotal)
	}
	dEntries := make([]DiseaseCount, dTotal)
	pos := 0
	prev := int64(0)
	for i := range m.Records {
		ln := int(lens[i])
		bag := dEntries[pos : pos+ln : pos+ln]
		pos += ln
		prev = 0
		for j := 0; j < ln; j++ {
			d, err := dec.zigzag()
			if err != nil {
				return nil, fmt.Errorf("mic: month %d disease ids: %w", month, err)
			}
			prev += d
			if prev < 0 || int(prev) >= len(meta.Diseases) {
				return nil, fmt.Errorf("mic: month %d record %d: disease %d out of range", month, i, prev)
			}
			bag[j].Disease = DiseaseID(prev)
		}
		if ln > 0 {
			m.Records[i].Diseases = bag
		}
	}
	// Disease count stream.
	for i := range dEntries {
		c, err := dec.uvarint()
		if err != nil {
			return nil, fmt.Errorf("mic: month %d disease counts: %w", month, err)
		}
		if c == 0 || c > math.MaxInt32 {
			return nil, fmt.Errorf("mic: month %d: disease count %d out of range", month, c)
		}
		dEntries[i].Count = int(c)
	}
	// Medicine bag lengths and entries.
	var mTotal uint64
	for i := range lens {
		if lens[i], err = dec.uvarint(); err != nil {
			return nil, fmt.Errorf("mic: month %d medicine lengths: %w", month, err)
		}
		if lens[i] > uint64(dec.remaining()) {
			return nil, fmt.Errorf("mic: month %d record %d: medicine bag length %d exceeds block", month, i, lens[i])
		}
		mTotal += lens[i]
	}
	if mTotal > uint64(dec.remaining()) {
		return nil, fmt.Errorf("mic: month %d: %d medicine entries exceed remaining block", month, mTotal)
	}
	mEntries := make([]MedicineID, mTotal)
	pos = 0
	for i := range m.Records {
		ln := int(lens[i])
		bag := mEntries[pos : pos+ln : pos+ln]
		pos += ln
		prev = 0
		for j := 0; j < ln; j++ {
			d, err := dec.zigzag()
			if err != nil {
				return nil, fmt.Errorf("mic: month %d medicine entries: %w", month, err)
			}
			prev += d
			if prev < 0 || int(prev) >= len(meta.Medicines) {
				return nil, fmt.Errorf("mic: month %d record %d: medicine %d out of range", month, i, prev)
			}
			bag[j] = MedicineID(prev)
		}
		if ln > 0 {
			m.Records[i].Medicines = bag
		}
	}
	if dec.remaining() != 0 {
		return nil, fmt.Errorf("mic: month %d block: %d trailing bytes", month, dec.remaining())
	}
	return m, nil
}

// ColumnarReadOptions tunes the whole-dataset columnar read.
type ColumnarReadOptions struct {
	// Workers bounds the parallel block decode fan-out (0 = GOMAXPROCS).
	// The decoded dataset is identical for every setting: each block fills
	// its own month slot.
	Workers int
}

// ReadColumnar decodes a whole MICC1 image into a Dataset, fanning block
// decoding out across a bounded worker pool.
func ReadColumnar(r io.ReaderAt, size int64, opts ColumnarReadOptions) (*Dataset, error) {
	cf, err := OpenColumnar(r, size)
	if err != nil {
		return nil, err
	}
	return cf.ReadAll(opts)
}

// ReadColumnarFile decodes the MICC1 file at path with parallel block
// decoding.
func ReadColumnarFile(path string, opts ColumnarReadOptions) (*Dataset, error) {
	cf, err := OpenColumnarFile(path)
	if err != nil {
		return nil, err
	}
	defer cf.Close()
	return cf.ReadAll(opts)
}

// ReadAll decodes every month block into a Dataset. Blocks decode
// concurrently on Workers goroutines; each fills its own month slot, so the
// result is identical for any worker count, and so is the error: that of
// the lowest month whose block fails to decode. Each worker reuses one
// scratch (compressed and decompressed buffers, flate reader, bag lengths)
// across the blocks it decodes.
func (cf *ColumnarFile) ReadAll(opts ColumnarReadOptions) (*Dataset, error) {
	d, err := cf.meta.newDataset()
	if err != nil {
		return nil, err
	}
	err = par.Each(context.Background(), len(cf.blocks), opts.Workers, func() func(int) error {
		var s blockScratch
		return func(t int) (err error) {
			d.Months[t], err = cf.readMonth(t, &s)
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// newDataset builds an empty Dataset skeleton (vocabularies interned,
// hospital table set, one empty Monthly per month) from stream metadata.
func (m StreamMeta) newDataset() (*Dataset, error) {
	d := NewDataset()
	for _, code := range m.Diseases {
		d.Diseases.Intern(code)
	}
	if d.Diseases.Len() != len(m.Diseases) {
		return nil, errors.New("mic: duplicate disease codes in columnar header")
	}
	for _, code := range m.Medicines {
		d.Medicines.Intern(code)
	}
	if d.Medicines.Len() != len(m.Medicines) {
		return nil, errors.New("mic: duplicate medicine codes in columnar header")
	}
	d.Hospitals = append([]Hospital(nil), m.Hospitals...)
	d.Months = make([]*Monthly, m.Months)
	for t := range d.Months {
		d.Months[t] = &Monthly{Month: t}
	}
	return d, nil
}

// WriteColumnar serializes an in-memory dataset as MICC1.
func WriteColumnar(w io.Writer, d *Dataset, opts ColumnarWriterOptions) error {
	cw, err := NewColumnarWriter(w, NewStreamMeta(d), opts)
	if err != nil {
		return err
	}
	for _, m := range d.Months {
		if err := cw.WriteMonth(m); err != nil {
			cw.Close()
			return err
		}
	}
	return cw.Close()
}

// WriteColumnarFile writes the dataset to path as MICC1.
func WriteColumnarFile(path string, d *Dataset, opts ColumnarWriterOptions) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return WriteColumnar(f, d, opts)
}
