package mic

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// Format identifies an on-disk dataset encoding.
type Format int

// Dataset formats.
const (
	// FormatAuto selects the format by sniffing magic bytes when reading
	// (gzip and '{' mean JSONL, the MICC1 magic means columnar) and by file
	// extension when writing (.micc is columnar, everything else JSONL).
	FormatAuto Format = iota
	// FormatJSONL is the line-oriented JSON codec (optionally gzipped).
	FormatJSONL
	// FormatColumnar is the MICC1 binary columnar format.
	FormatColumnar
)

// String names the format the way the CLI -format flags spell it.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatJSONL:
		return "jsonl"
	case FormatColumnar:
		return "columnar"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat parses a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "auto", "":
		return FormatAuto, nil
	case "jsonl":
		return FormatJSONL, nil
	case "columnar":
		return FormatColumnar, nil
	default:
		return FormatAuto, fmt.Errorf("mic: unknown format %q (want auto, jsonl, or columnar)", s)
	}
}

// SniffFormat identifies the encoding from the first bytes of a stream: the
// MICC1 magic means columnar; a gzip magic or a JSON object open brace means
// JSONL. At least sniffLen bytes disambiguate every valid file.
func SniffFormat(prefix []byte) (Format, error) {
	if len(prefix) >= len(columnarMagic) && string(prefix[:len(columnarMagic)]) == columnarMagic {
		return FormatColumnar, nil
	}
	if len(prefix) >= 2 && prefix[0] == 0x1f && prefix[1] == 0x8b {
		return FormatJSONL, nil // gzip-wrapped JSONL
	}
	trimmed := bytes.TrimLeft(prefix, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '{' {
		return FormatJSONL, nil
	}
	return FormatAuto, fmt.Errorf("mic: unrecognized dataset format (no MICC1, gzip, or JSON magic)")
}

// sniffLen is how many leading bytes SniffFormat needs.
const sniffLen = len(columnarMagic)

// SniffFile identifies the format of the dataset at path by magic bytes.
func SniffFile(path string) (Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return FormatAuto, err
	}
	defer f.Close()
	prefix := make([]byte, sniffLen)
	n, err := io.ReadFull(f, prefix)
	if err != nil && err != io.ErrUnexpectedEOF {
		return FormatAuto, fmt.Errorf("mic: sniffing %s: %w", path, err)
	}
	return SniffFormat(prefix[:n])
}

// FormatForPath selects a write format from the file extension: .micc means
// columnar, everything else (.jsonl, .jsonl.gz, …) JSONL.
func FormatForPath(path string) Format {
	if strings.HasSuffix(path, ".micc") {
		return FormatColumnar
	}
	return FormatJSONL
}

// StorageOptions carries the knobs shared by both backends. Zero values are
// sensible everywhere: lenient JSONL reads, GOMAXPROCS fan-out, default
// compression.
type StorageOptions struct {
	// Read controls JSONL malformed-line handling (columnar files are
	// CRC-verified instead; a corrupt block always errors).
	Read ReadOptions
	// Workers bounds the columnar backend's parallel block decode and the
	// writer's parallel block compression (0 = GOMAXPROCS). The bytes read
	// and written are identical for every setting.
	Workers int
	// Level is the columnar flate level (0 = default).
	Level int
}

// StreamMeta is the up-front dataset metadata a stream writer needs before
// any month arrives: the declared month count, the vocabularies in id order,
// and the hospital table. It is the header of both on-disk formats.
type StreamMeta struct {
	Months    int
	Diseases  []string
	Medicines []string
	Hospitals []Hospital
}

// NewStreamMeta captures a dataset's metadata for streaming writes.
func NewStreamMeta(d *Dataset) StreamMeta {
	return StreamMeta{
		Months:    len(d.Months),
		Diseases:  d.Diseases.Codes(),
		Medicines: d.Medicines.Codes(),
		Hospitals: d.Hospitals,
	}
}

// StreamWriter emits a dataset one month at a time. Months must be written
// in index order starting at 0, exactly Meta.Months of them, then Close
// finalizes the file. Both backends implement it, so generators and
// transcoders never materialize a corpus in memory.
type StreamWriter interface {
	WriteMonth(m *Monthly) error
	Close() error
}

// Storage describes an on-disk dataset backend. The JSONL and columnar
// codecs do not implement it: ReadDatasetFile, WriteDatasetFile, ReadAuto
// and NewStreamFileWriter select them by Format directly.
//
// Deprecated: nothing implements or accepts a Storage, so a codec of the
// caller's own cannot plug in through it. Select a codec by Format.
type Storage interface {
	// Format names the backend.
	Format() Format
	// Read decodes a whole dataset from r.
	Read(r io.Reader, opts StorageOptions) (*Dataset, ReadStats, error)
	// ReadFile decodes the dataset at path (handling the backend's framing:
	// gzip for JSONL, the block index for columnar).
	ReadFile(path string, opts StorageOptions) (*Dataset, ReadStats, error)
	// Write encodes a whole in-memory dataset to w.
	Write(w io.Writer, d *Dataset, opts StorageOptions) error
	// WriteFile encodes the dataset to path.
	WriteFile(path string, d *Dataset, opts StorageOptions) error
	// StreamWriter starts a month-at-a-time write to w.
	StreamWriter(w io.Writer, meta StreamMeta, opts StorageOptions) (StreamWriter, error)
}

// ReadDatasetFile reads the dataset at path in the given format, sniffing
// magic bytes under FormatAuto. It returns the format actually decoded.
func ReadDatasetFile(path string, format Format, opts StorageOptions) (*Dataset, ReadStats, Format, error) {
	if format == FormatAuto {
		var err error
		if format, err = SniffFile(path); err != nil {
			return nil, ReadStats{}, FormatAuto, err
		}
	}
	switch format {
	case FormatJSONL:
		d, stats, err := ReadFileWithStats(path, opts.Read)
		return d, stats, format, err
	case FormatColumnar:
		d, err := ReadColumnarFile(path, ColumnarReadOptions{Workers: opts.Workers})
		return d, ReadStats{}, format, err
	}
	return nil, ReadStats{}, format, fmt.Errorf("mic: no storage backend for format %v", format)
}

// WriteDatasetFile writes the dataset to path in the given format, choosing
// by extension under FormatAuto. It returns the format actually written.
func WriteDatasetFile(path string, format Format, d *Dataset, opts StorageOptions) (Format, error) {
	if format == FormatAuto {
		format = FormatForPath(path)
	}
	switch format {
	case FormatJSONL:
		return format, WriteFile(path, d)
	case FormatColumnar:
		return format, WriteColumnarFile(path, d, ColumnarWriterOptions{Level: opts.Level, Workers: opts.Workers})
	}
	return format, fmt.Errorf("mic: no storage backend for format %v", format)
}

// ReadAuto decodes a dataset from a stream whose format is unknown, sniffing
// the first bytes: HTTP ingest bodies and pipes take this path. It returns
// the format decoded.
func ReadAuto(r io.Reader, opts StorageOptions) (*Dataset, ReadStats, Format, error) {
	// The sniffed bytes are read unbuffered and put back in front of the
	// stream, so the backend's own reader is the only buffer a read has.
	var head [sniffLen]byte
	n, err := io.ReadFull(r, head[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF && n == 0 {
		return nil, ReadStats{}, FormatAuto, fmt.Errorf("mic: sniffing stream: %w", err)
	}
	prefix := head[:n]
	format, err := SniffFormat(prefix)
	if err != nil {
		return nil, ReadStats{}, FormatAuto, err
	}
	src := io.MultiReader(bytes.NewReader(prefix), r)
	if format == FormatColumnar {
		// The columnar reader needs random access for its footer index, so
		// the stream is buffered first.
		data, err := io.ReadAll(capDecoded(src, opts.Read.MaxBytes))
		if err != nil {
			return nil, ReadStats{}, format, fmt.Errorf("mic: buffering columnar stream: %w", err)
		}
		d, err := ReadColumnar(bytes.NewReader(data), int64(len(data)), ColumnarReadOptions{Workers: opts.Workers})
		return d, ReadStats{}, format, err
	}
	if len(prefix) >= 2 && prefix[0] == 0x1f && prefix[1] == 0x8b {
		gz, err := gzip.NewReader(src)
		if err != nil {
			return nil, ReadStats{}, format, fmt.Errorf("mic: gunzipping stream: %w", err)
		}
		defer gz.Close()
		src = gz
	}
	d, stats, err := ReadWithStats(src, opts.Read)
	return d, stats, format, err
}

// NewStreamFileWriter creates path and starts a month-at-a-time write in the
// given format (by extension under FormatAuto; a .gz suffix additionally
// gzip-wraps JSONL output). Close finalizes both the encoding and the file.
func NewStreamFileWriter(path string, format Format, meta StreamMeta, opts StorageOptions) (StreamWriter, Format, error) {
	if format == FormatAuto {
		format = FormatForPath(path)
	}
	if format != FormatJSONL && format != FormatColumnar {
		return nil, format, fmt.Errorf("mic: no storage backend for format %v", format)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, format, err
	}
	var w io.Writer = f
	closers := []io.Closer{f}
	if format == FormatJSONL && strings.HasSuffix(path, ".gz") {
		gz := gzip.NewWriter(f)
		w = gz
		closers = []io.Closer{gz, f}
	}
	var sw StreamWriter
	if format == FormatColumnar {
		sw, err = NewColumnarWriter(w, meta, ColumnarWriterOptions{Level: opts.Level, Workers: opts.Workers})
	} else {
		sw, err = NewJSONLStreamWriter(w, meta)
	}
	if err != nil {
		for _, c := range closers {
			c.Close()
		}
		os.Remove(path)
		return nil, format, err
	}
	return &fileStreamWriter{sw: sw, closers: closers}, format, nil
}

// fileStreamWriter chains a stream writer with the file (and optional gzip)
// closers behind it.
type fileStreamWriter struct {
	sw      StreamWriter
	closers []io.Closer
}

func (f *fileStreamWriter) WriteMonth(m *Monthly) error { return f.sw.WriteMonth(m) }

func (f *fileStreamWriter) Close() error {
	err := f.sw.Close()
	for _, c := range f.closers {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
