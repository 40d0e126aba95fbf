package mic

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// testDataset builds a small dataset with edge shapes: empty months, empty
// bags, unknown (-1) patients, descending bag ids, and multi-count diseases.
func testDataset(t testing.TB) *Dataset {
	t.Helper()
	d := NewDataset()
	for i := 0; i < 7; i++ {
		d.Diseases.Intern(fmt.Sprintf("D%02d", i))
	}
	for i := 0; i < 5; i++ {
		d.Medicines.Intern(fmt.Sprintf("M%02d", i))
	}
	d.AddHospital(Hospital{Code: "H-a", City: "north", Beds: 12})
	d.AddHospital(Hospital{Code: "H-b", City: "south", Beds: 480})
	d.Months = []*Monthly{
		{Month: 0, Records: []Record{
			{Hospital: 0, Patient: 3, Diseases: []DiseaseCount{{0, 2}, {4, 1}}, Medicines: []MedicineID{1, 0, 4}},
			{Hospital: 1, Patient: -1, Diseases: []DiseaseCount{{6, 9}}, Medicines: nil},
			{Hospital: 0, Patient: 3, Diseases: nil, Medicines: []MedicineID{2}},
		}},
		{Month: 1}, // empty month
		{Month: 2, Records: []Record{
			{Hospital: 1, Patient: 0, Diseases: []DiseaseCount{{5, 1}, {1, 3}}, Medicines: []MedicineID{4, 4, 0}},
		}},
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("test dataset invalid: %v", err)
	}
	return d
}

// randomDataset builds a pseudo-random valid dataset for round-trip checks.
func randomDataset(seed uint64, months, recordsPerMonth int) *Dataset {
	rng := rand.New(rand.NewPCG(seed, 42))
	d := NewDataset()
	nd, nm, nh := 20+rng.IntN(30), 15+rng.IntN(20), 3+rng.IntN(8)
	for i := 0; i < nd; i++ {
		d.Diseases.Intern(fmt.Sprintf("dis-%03d", i))
	}
	for i := 0; i < nm; i++ {
		d.Medicines.Intern(fmt.Sprintf("med-%03d", i))
	}
	for i := 0; i < nh; i++ {
		d.AddHospital(Hospital{Code: fmt.Sprintf("H%d", i), City: fmt.Sprintf("c%d", i%3), Beds: rng.IntN(600)})
	}
	for t := 0; t < months; t++ {
		m := &Monthly{Month: t}
		n := rng.IntN(recordsPerMonth + 1)
		for r := 0; r < n; r++ {
			rec := Record{Hospital: HospitalID(rng.IntN(nh)), Patient: int32(rng.IntN(1000)) - 1}
			for k := rng.IntN(5); k > 0; k-- {
				rec.Diseases = append(rec.Diseases, DiseaseCount{
					Disease: DiseaseID(rng.IntN(nd)), Count: 1 + rng.IntN(4),
				})
			}
			for k := rng.IntN(4); k > 0; k-- {
				rec.Medicines = append(rec.Medicines, MedicineID(rng.IntN(nm)))
			}
			m.Records = append(m.Records, rec)
		}
		d.Months = append(d.Months, m)
	}
	return d
}

// datasetsEqual compares two datasets structurally.
func datasetsEqual(t *testing.T, a, b *Dataset) {
	t.Helper()
	if !reflect.DeepEqual(a.Diseases.Codes(), b.Diseases.Codes()) {
		t.Fatalf("disease vocab mismatch")
	}
	if !reflect.DeepEqual(a.Medicines.Codes(), b.Medicines.Codes()) {
		t.Fatalf("medicine vocab mismatch")
	}
	if !reflect.DeepEqual(a.Hospitals, b.Hospitals) {
		t.Fatalf("hospital table mismatch")
	}
	if len(a.Months) != len(b.Months) {
		t.Fatalf("month count mismatch: %d vs %d", len(a.Months), len(b.Months))
	}
	for i := range a.Months {
		am, bm := a.Months[i], b.Months[i]
		if am.Month != bm.Month || len(am.Records) != len(bm.Records) {
			t.Fatalf("month %d shape mismatch", i)
		}
		for r := range am.Records {
			ar, br := am.Records[r], bm.Records[r]
			if ar.Hospital != br.Hospital || ar.Patient != br.Patient ||
				!sameDiseases(ar.Diseases, br.Diseases) || !sameMeds(ar.Medicines, br.Medicines) {
				t.Fatalf("month %d record %d mismatch:\n%+v\n%+v", i, r, ar, br)
			}
		}
	}
}

func sameDiseases(a, b []DiseaseCount) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameMeds(a, b []MedicineID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestColumnarRoundTrip(t *testing.T) {
	d := testDataset(t)
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, d, ColumnarWriterOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadColumnar(bytes.NewReader(buf.Bytes()), int64(buf.Len()), ColumnarReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("decoded dataset invalid: %v", err)
	}
	datasetsEqual(t, d, got)
}

func TestColumnarRoundTripRandom(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		d := randomDataset(seed, 1+int(seed)*3, 50)
		var buf bytes.Buffer
		if err := WriteColumnar(&buf, d, ColumnarWriterOptions{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := ReadColumnar(bytes.NewReader(buf.Bytes()), int64(buf.Len()), ColumnarReadOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		datasetsEqual(t, d, got)
	}
}

// TestColumnarWriterWorkerInvariance pins the format's determinism contract:
// the emitted bytes are identical for any compression worker count, and the
// decoded dataset is identical for any decode worker count.
func TestColumnarWriterWorkerInvariance(t *testing.T) {
	d := randomDataset(99, 12, 80)
	var base bytes.Buffer
	if err := WriteColumnar(&base, d, ColumnarWriterOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		var buf bytes.Buffer
		if err := WriteColumnar(&buf, d, ColumnarWriterOptions{Workers: workers}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(base.Bytes(), buf.Bytes()) {
			t.Fatalf("columnar bytes differ between 1 and %d compression workers", workers)
		}
	}
	serial, err := ReadColumnar(bytes.NewReader(base.Bytes()), int64(base.Len()), ColumnarReadOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		got, err := ReadColumnar(bytes.NewReader(base.Bytes()), int64(base.Len()), ColumnarReadOptions{Workers: workers})
		if err != nil {
			t.Fatalf("decode workers=%d: %v", workers, err)
		}
		datasetsEqual(t, serial, got)
	}
}

// TestColumnarJSONLEquivalence decodes the same corpus through both backends
// and requires identical datasets — the decode-equivalence contract the CI
// race step runs with every worker count.
func TestColumnarJSONLEquivalence(t *testing.T) {
	d := randomDataset(7, 10, 120)
	var jl, col bytes.Buffer
	if err := Write(&jl, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteColumnar(&col, d, ColumnarWriterOptions{}); err != nil {
		t.Fatal(err)
	}
	fromJSONL, err := Read(bytes.NewReader(jl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		fromCol, err := ReadColumnar(bytes.NewReader(col.Bytes()), int64(col.Len()), ColumnarReadOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		datasetsEqual(t, fromJSONL, fromCol)
	}
}

func TestColumnarStreamWriterMonthOrder(t *testing.T) {
	d := testDataset(t)
	var buf bytes.Buffer
	cw, err := NewColumnarWriter(&buf, NewStreamMeta(d), ColumnarWriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteMonth(d.Months[1]); err == nil {
		t.Fatal("out-of-order month accepted")
	}
	if err := cw.WriteMonth(d.Months[0]); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err == nil {
		t.Fatal("Close accepted an incomplete file")
	}
}

// TestColumnarCorruption flips, truncates, and rewrites bytes across the
// file and requires every mutation to surface as an error — never a panic,
// never a silently wrong dataset.
func TestColumnarCorruption(t *testing.T) {
	d := testDataset(t)
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, d, ColumnarWriterOptions{}); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()

	t.Run("not-columnar", func(t *testing.T) {
		if _, err := ReadColumnar(bytes.NewReader([]byte("hello")), 5, ColumnarReadOptions{}); err == nil {
			t.Fatal("garbage accepted")
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for _, cut := range []int{1, 7, len(orig) / 3, len(orig) / 2, len(orig) - 1} {
			if cut >= len(orig) {
				continue
			}
			if _, err := ReadColumnar(bytes.NewReader(orig[:cut]), int64(cut), ColumnarReadOptions{}); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("bit-flips", func(t *testing.T) {
		for pos := 0; pos < len(orig); pos += 3 {
			mut := append([]byte(nil), orig...)
			mut[pos] ^= 0x41
			ds, err := ReadColumnar(bytes.NewReader(mut), int64(len(mut)), ColumnarReadOptions{})
			if err != nil {
				continue
			}
			// A flip the CRCs cannot see (e.g. inside the trailer's
			// unprotected offset bytes that still lands on a valid region) —
			// whatever decodes must still be a valid dataset.
			if verr := ds.Validate(); verr != nil {
				t.Fatalf("flip at %d decoded an invalid dataset: %v", pos, verr)
			}
		}
	})
}

func TestSniffFormat(t *testing.T) {
	d := testDataset(t)
	var jl, col bytes.Buffer
	if err := Write(&jl, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteColumnar(&col, d, ColumnarWriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if f, err := SniffFormat(jl.Bytes()[:8]); err != nil || f != FormatJSONL {
		t.Fatalf("jsonl sniff: %v %v", f, err)
	}
	if f, err := SniffFormat(col.Bytes()[:8]); err != nil || f != FormatColumnar {
		t.Fatalf("columnar sniff: %v %v", f, err)
	}
	if f, err := SniffFormat([]byte{0x1f, 0x8b, 0x08}); err != nil || f != FormatJSONL {
		t.Fatalf("gzip sniff: %v %v", f, err)
	}
	if _, err := SniffFormat([]byte("PK\x03\x04")); err == nil {
		t.Fatal("zip magic sniffed as a dataset format")
	}
}

func TestReadAuto(t *testing.T) {
	d := testDataset(t)
	var jl, col bytes.Buffer
	if err := Write(&jl, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteColumnar(&col, d, ColumnarWriterOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want Format
	}{
		{"jsonl", jl.Bytes(), FormatJSONL},
		{"columnar", col.Bytes(), FormatColumnar},
	} {
		ds, _, format, err := ReadAuto(bytes.NewReader(tc.data), StorageOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if format != tc.want {
			t.Fatalf("%s: sniffed %v", tc.name, format)
		}
		datasetsEqual(t, d, ds)
	}
	if _, _, _, err := ReadAuto(strings.NewReader("PK\x03\x04junk"), StorageOptions{}); err == nil {
		t.Fatal("unknown stream accepted")
	}
}

func TestColumnarFileStreamingMonths(t *testing.T) {
	d := randomDataset(3, 9, 40)
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, d, ColumnarWriterOptions{}); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenColumnar(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if cf.Months() != d.T() {
		t.Fatalf("Months() = %d, want %d", cf.Months(), d.T())
	}
	for tm := 0; tm < cf.Months(); tm++ {
		if got, want := cf.MonthRecords(tm), len(d.Months[tm].Records); got != want {
			t.Fatalf("MonthRecords(%d) = %d, want %d", tm, got, want)
		}
		m, err := cf.ReadMonth(tm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, d.Months[tm]) && len(m.Records)+len(d.Months[tm].Records) > 0 {
			t.Fatalf("month %d mismatch", tm)
		}
	}
	if _, err := cf.ReadMonth(cf.Months()); err == nil {
		t.Fatal("out-of-range month accepted")
	}
}

// TestDecodeBlockBagLengthOverflow pins the per-entry bound on bag lengths:
// two lengths of 2^63 wrap their uint64 sum to zero, slipping past the
// total-vs-remaining check, and the negative int conversion then panics on
// the slice bound. Both bag columns must reject each oversized length before
// it is summed.
func TestDecodeBlockBagLengthOverflow(t *testing.T) {
	meta := StreamMeta{
		Months:    1,
		Diseases:  []string{"D00"},
		Medicines: []string{"M00"},
		Hospitals: []Hospital{{Code: "H", City: "c", Beds: 1}},
	}
	const half = uint64(1) << 63
	prefix := binary.AppendUvarint(nil, 2)   // record count
	prefix = binary.AppendUvarint(prefix, 0) // hospital column
	prefix = binary.AppendUvarint(prefix, 0)
	prefix = binary.AppendUvarint(prefix, 0) // patient column (zigzag 0)
	prefix = binary.AppendUvarint(prefix, 0)

	disease := binary.AppendUvarint(append([]byte(nil), prefix...), half)
	disease = binary.AppendUvarint(disease, half)

	medicine := binary.AppendUvarint(append([]byte(nil), prefix...), 0) // empty disease bags
	medicine = binary.AppendUvarint(medicine, 0)
	medicine = binary.AppendUvarint(medicine, half)
	medicine = binary.AppendUvarint(medicine, half)

	for name, raw := range map[string][]byte{"disease": disease, "medicine": medicine} {
		if _, err := new(blockScratch).decodeBlock(raw, 0, 2, meta); err == nil {
			t.Fatalf("%s: overflowing bag lengths accepted", name)
		}
	}
}

// sizedDataset cuts the records of a random dataset into months of the given
// sizes, in order.
func sizedDataset(t *testing.T, seed uint64, sizes []int) *Dataset {
	t.Helper()
	src := randomDataset(seed, 30, 60)
	var pool []Record
	for _, m := range src.Months {
		pool = append(pool, m.Records...)
	}
	d := &Dataset{Diseases: src.Diseases, Medicines: src.Medicines, Hospitals: src.Hospitals}
	for month, n := range sizes {
		if n > len(pool) {
			t.Fatalf("pool of %d records too small for a month of %d", len(pool), n)
		}
		d.Months = append(d.Months, &Monthly{Month: month, Records: pool[:n:n]})
		pool = pool[n:]
	}
	return d
}

// TestReadAllScratchReuse: ReadAll workers reuse one scratch across blocks,
// so a corpus whose months vary in size — an empty month among them, and a
// month larger than every month before it — must decode at Workers 1, 2 and
// 4 exactly as one ReadMonth per month does.
func TestReadAllScratchReuse(t *testing.T) {
	d := sizedDataset(t, 31, []int{40, 3, 0, 90, 17, 0, 260, 1, 120, 0})
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, d, ColumnarWriterOptions{}); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenColumnar(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Monthly, cf.Months())
	for i := range want {
		if want[i], err = cf.ReadMonth(i); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		got, err := cf.ReadAll(ColumnarReadOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !reflect.DeepEqual(got.Months, want) {
			t.Fatalf("workers %d: ReadAll differs from ReadMonth per month", workers)
		}
		datasetsEqual(t, got, d)
	}
}

// TestReadAllCorruptBlockAfterGood: a worker's scratch still holds the
// previous block when it reads the next, and a corrupt block read right
// after a good one must still fail its CRC, length and trailing-byte checks.
func TestReadAllCorruptBlockAfterGood(t *testing.T) {
	d := sizedDataset(t, 37, []int{200, 30, 260, 15, 15, 15, 15})
	meta := NewStreamMeta(d)
	// blockFile lays out one compressed block per raw payload, indexed
	// truthfully, behind a nominal header offset.
	blockFile := func(raws ...[]byte) *ColumnarFile {
		cf := &ColumnarFile{meta: meta}
		var file bytes.Buffer
		for month, raw := range raws {
			comp, err := compressBlock(raw, 0)
			if err != nil {
				t.Fatal(err)
			}
			cf.blocks = append(cf.blocks, blockInfo{
				Month: month, Offset: int64(file.Len()), Len: int64(len(comp)), RawLen: int64(len(raw)),
				Records: len(d.Months[month].Records), CRC: crc32.Checksum(comp, castagnoli),
			})
			file.Write(comp)
		}
		cf.r = bytes.NewReader(file.Bytes())
		return cf
	}
	var raws [][]byte
	for _, m := range d.Months {
		raw, err := encodeBlock(m, meta)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}
	good, err := blockFile(raws...).ReadAll(ColumnarReadOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, good, d)

	cases := []struct {
		name, want string
		cf         *ColumnarFile
	}{
		{"crc", "month 1 block CRC mismatch", blockFile(raws...)},
		{"rawlen-short", "month 1 block decompressed to", blockFile(raws...)},
		{"rawlen-long", "month 1 block decompressed to", blockFile(raws...)},
		{"trailing", "month 1 block: 1 trailing bytes", blockFile(raws[0], append(slices.Clip(raws[1]), 0))},
	}
	cases[0].cf.blocks[1].CRC ^= 1
	cases[1].cf.blocks[1].RawLen--
	cases[2].cf.blocks[1].RawLen++
	for _, c := range cases {
		_, err := c.cf.ReadAll(ColumnarReadOptions{Workers: 1})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want %q", c.name, err, c.want)
		}
	}

	// Blocks 2 and 5 both corrupt: block 2, the larger, fails only after
	// decompressing, block 5 at once on its CRC, yet block 2's error is
	// the one reported at every worker count.
	corrupt := slices.Clone(raws)
	corrupt[2] = append(slices.Clip(raws[2]), 0)
	two := blockFile(corrupt...)
	two.blocks[5].CRC ^= 1
	for _, workers := range []int{1, 2, 4} {
		for run := 0; run < 20; run++ {
			_, err := two.ReadAll(ColumnarReadOptions{Workers: workers})
			if want := "month 2 block: 1 trailing bytes"; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("blocks 2 and 5 corrupt, Workers %d, run %d: got error %v, want %q", workers, run, err, want)
			}
		}
	}
}
