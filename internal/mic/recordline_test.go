package mic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// recordLineDataset is the header state record lines are decoded against:
// two months, three hospitals, eight diseases and eight medicines.
func recordLineDataset() *Dataset {
	d := NewDataset()
	for i := 0; i < 8; i++ {
		d.Diseases.Intern(fmt.Sprintf("D%d", i))
		d.Medicines.Intern(fmt.Sprintf("M%d", i))
	}
	for i := 0; i < 3; i++ {
		d.AddHospital(Hospital{Code: fmt.Sprintf("H%d", i)})
	}
	d.Months = []*Monthly{{Month: 0}, {Month: 1}}
	return d
}

// recordLineCases are record lines on both sides of the fast path's rule,
// each with whether the fast path parses it.
var recordLineCases = []struct {
	line string
	fast bool
}{
	// Canonical lines, as Write emits them.
	{`{"t":0,"h":1,"p":5,"d":[[0,2],[3,1]],"m":[1,4]}` + "\n", true},
	{`{"t":1,"h":0,"p":-1,"d":null,"m":null}` + "\n", true},
	{`{"t":1,"h":2,"p":7,"d":[[7,9]],"m":[7,7,0]}`, true}, // no final newline
	{`{"t":0,"h":1,"p":5,"d":[[0,2]],"m":[1]}` + "\r\n", true},
	{`{"t":0,"h":1,"p":5,"d":[[0,2]],"m":[1]}  ` + "\t\n", true},
	// Integers at and past the edges of JSON's grammar and of int32.
	{`{"t":-0,"h":-0,"p":-0,"d":[[-0,1]],"m":[-0]}`, true},
	{`{"t":0,"h":0,"p":-2147483648,"d":null,"m":null}`, true},
	{`{"t":0,"h":0,"p":2147483647,"d":null,"m":null}`, true},
	{`{"t":0,"h":0,"p":-2147483649,"d":null,"m":null}`, false},
	{`{"t":0,"h":0,"p":2147483648,"d":null,"m":null}`, false},
	{`{"t":0,"h":0,"p":99999999999,"d":null,"m":null}`, false},
	{`{"t":2147483648,"h":0,"p":0,"d":null,"m":null}`, false},
	{`{"t":0,"h":0,"p":0,"d":[[0,2147483648]],"m":null}`, false},
	{`{"t":0,"h":0,"p":0,"d":null,"m":[-2147483649]}`, false},
	{`{"t":0,"h":0,"p":1.0,"d":null,"m":null}`, false},
	{`{"t":0,"h":0,"p":1e2,"d":null,"m":null}`, false},
	{`{"t":0,"h":0,"p":01,"d":null,"m":null}`, false},
	{`{"t":0,"h":0,"p":-,"d":null,"m":null}`, false},
	{`{"t":0,"h":0,"p":0,"d":[[1,2.5]],"m":null}`, false},
	// Pairs that are not pairs.
	{`{"t":0,"h":0,"p":0,"d":[[1]],"m":[1]}`, false},
	{`{"t":0,"h":0,"p":0,"d":[[1,2,3]],"m":[1]}`, false},
	{`{"t":0,"h":0,"p":0,"d":[[1,2],],"m":[1]}`, false},
	{`{"t":0,"h":0,"p":0,"d":[1,2],"m":[1]}`, false},
	// Empty and null bags: "d":[] and null give nil diseases; "m":[] gives
	// an empty, non-nil bag and "m":null a nil one.
	{`{"t":0,"h":0,"p":0,"d":[],"m":[]}`, true},
	{`{"t":0,"h":0,"p":0,"d":null,"m":[]}`, true},
	{`{"t":0,"h":0,"p":0,"d":[],"m":null}`, true},
	// Other shapes encoding/json accepts.
	{`{"h":1,"t":0,"p":5,"d":[[0,2]],"m":[1]}`, false},
	{`{"t":0,"h":1,"p":5,"d":[[0,2]],"m":[1],"m":[2]}`, false},
	{`{"t":0,"t":1,"h":1,"p":5,"d":null,"m":null}`, false},
	{`{"T":1,"h":1,"p":5,"d":[[0,2]],"m":[1]}`, false},
	{`{"t":0,"h":1,"p":5,"d":[[0,2]],"m":[1],"x":"y"}`, false},
	{`{"t":0,"h":1,"p":5,"d":null}`, false},
	{`{"t": 0,"h":1,"p":5,"d":[[0,2]],"m":[1]}`, false},
	{`{"t":0,"h":1,"p":5,"d":[[0, 2]],"m":[1]}`, false},
	{`{"t":0,"h":1,"p":5,"d":[[0,2]],"m":[1] }`, false},
	{` {"t":0,"h":1,"p":5,"d":[[0,2]],"m":[1]}`, false},
	{`{"t":0,"h":null,"p":5,"d":null,"m":null}`, false},
	// Lines encoding/json refuses.
	{`{"t":0,"h":1,"p":5,"d":[[0,2]],"m":[1]}x`, false},
	{`{"t":0,"h":1,"p":5,"d":[[0,2]],"m":[1]`, false},
	{`{"t":0,"h":1,"p":5,"d":[[0,2]],"m":[1,]}`, false},
	{`{"t":"0","h":1,"p":5,"d":null,"m":null}`, false},
	{`not json`, false},
	// Canonical lines that fail validation after parsing.
	{`{"t":2,"h":0,"p":0,"d":null,"m":null}`, true},
	{`{"t":-1,"h":0,"p":0,"d":null,"m":null}`, true},
	{`{"t":0,"h":3,"p":0,"d":[[0,1]],"m":[0]}`, true},
	{`{"t":0,"h":0,"p":0,"d":[[8,1]],"m":[0]}`, true},
	{`{"t":0,"h":0,"p":0,"d":[[1,0]],"m":[0]}`, true},
	{`{"t":0,"h":0,"p":0,"d":[[1,1]],"m":[0,-1]}`, true},
}

// errText renders an error for comparison; nil is the empty string.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// decodeRecordLine is the encoding/json reference decoder: it parses one
// record line with parseRecordLine and appends it to its month on success.
func decodeRecordLine(d *Dataset, months int, line []byte) error {
	t, rec, err := parseRecordLine(line)
	if err != nil {
		return err
	}
	return appendRecord(d, months, t, rec)
}

// TestRecordFastPathMatchesJSON pins the fast record decoder to the
// encoding/json reference: for every line, decoding through the fast path
// (and its fallback) yields the same records — nil and empty bags included —
// and the same error as decodeRecordLine alone, and the fast path parses
// exactly the canonical lines.
func TestRecordFastPathMatchesJSON(t *testing.T) {
	for _, c := range recordLineCases {
		probe := recordDecoder{d: recordLineDataset(), months: 2}
		_, _, ok := probe.parse([]byte(c.line))
		if ok != c.fast {
			t.Errorf("%q: fast path parses = %v, want %v", c.line, ok, c.fast)
		}
		if !ok && (len(probe.diseases) != 0 || len(probe.medicines) != 0) {
			t.Errorf("%q: refused line left entries on the slabs", c.line)
		}
		fast, ref := recordLineDataset(), recordLineDataset()
		dec := recordDecoder{d: fast, months: 2}
		fastErr, refErr := dec.decode([]byte(c.line)), decodeRecordLine(ref, 2, []byte(c.line))
		if errText(fastErr) != errText(refErr) {
			t.Errorf("%q: error %q, want %q", c.line, errText(fastErr), errText(refErr))
		}
		if fastErr != nil && (len(dec.diseases) != 0 || len(dec.medicines) != 0) {
			t.Errorf("%q: rejected line left entries on the slabs", c.line)
		}
		if !reflect.DeepEqual(fast.Months, ref.Months) {
			t.Errorf("%q: decoded %+v, want %+v", c.line, fast.Months[:], ref.Months[:])
		}
	}

	// One decoder across every line, repeated past several slab chunks, with
	// refused and invalid lines in between; then three-entry bags, so chunk
	// boundaries (powers of two) fall inside a record.
	fast, ref := recordLineDataset(), recordLineDataset()
	dec := recordDecoder{d: fast, months: 2}
	lines := make([]string, 0, 400*len(recordLineCases)+3000)
	for rep := 0; rep < 400; rep++ {
		for _, c := range recordLineCases {
			lines = append(lines, c.line)
		}
	}
	for i := 0; i < 3000; i++ {
		lines = append(lines, fmt.Sprintf(`{"t":1,"h":2,"p":%d,"d":[[1,%d],[2,2],[3,3]],"m":[%d,5,6]}`, i, 1+i%5, i%8))
	}
	for _, line := range lines {
		fastErr, refErr := dec.decode([]byte(line)), decodeRecordLine(ref, 2, []byte(line))
		if errText(fastErr) != errText(refErr) {
			t.Fatalf("%q: error %q, want %q", line, errText(fastErr), errText(refErr))
		}
	}
	if !reflect.DeepEqual(fast.Months, ref.Months) {
		t.Fatal("a shared decoder's records differ from the reference")
	}

	// Neighbouring records share a slab; growing one bag must not reach into
	// the next.
	d := recordLineDataset()
	dec = recordDecoder{d: d, months: 2}
	for _, line := range []string{
		`{"t":0,"h":0,"p":0,"d":[[0,1]],"m":[1]}`,
		`{"t":0,"h":0,"p":1,"d":[[2,3]],"m":[4,5]}`,
	} {
		if err := dec.decode([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	first, second := &d.Months[0].Records[0], &d.Months[0].Records[1]
	first.Diseases = append(first.Diseases, DiseaseCount{Disease: 7, Count: 7})
	first.Medicines = append(first.Medicines, 7)
	if !reflect.DeepEqual(second.Diseases, []DiseaseCount{{2, 3}}) || !reflect.DeepEqual(second.Medicines, []MedicineID{4, 5}) {
		t.Fatalf("appending to a record's bags changed its neighbour: %+v", *second)
	}
}

// FuzzDecodeRecordLine checks the fast record decoder against
// encoding/json: any line the fast path parses must unmarshal to the same
// record, and the fast path with its fallback must decode every line to the
// same records and error as decodeRecordLine alone, without panicking. Run
// with `go test -fuzz=FuzzDecodeRecordLine`; plain `go test` runs the seeds.
func FuzzDecodeRecordLine(f *testing.F) {
	var buf bytes.Buffer
	for _, d := range []*Dataset{testDataset(f), randomDataset(3, 2, 20)} {
		buf.Reset()
		if err := Write(&buf, d); err != nil {
			f.Fatal(err)
		}
		lines := strings.SplitAfter(buf.String(), "\n")
		for _, line := range lines[1:] { // skip the header
			f.Add([]byte(line))
		}
	}
	for _, c := range recordLineCases {
		f.Add([]byte(c.line))
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		probe := recordDecoder{d: recordLineDataset(), months: 2}
		if month, rec, ok := probe.parse(line); ok {
			var fr fileRecord
			if err := json.Unmarshal(line, &fr); err != nil {
				t.Fatalf("%q: fast path parsed a line encoding/json refuses: %v", line, err)
			}
			want := Record{Hospital: HospitalID(fr.Hospital), Patient: fr.Patient, Medicines: fr.Medicines}
			for _, pair := range fr.Diseases {
				want.Diseases = append(want.Diseases, DiseaseCount{Disease: DiseaseID(pair[0]), Count: int(pair[1])})
			}
			if month != fr.Month || !reflect.DeepEqual(rec, want) {
				t.Fatalf("%q: fast path month %d record %+v, encoding/json month %d record %+v", line, month, rec, fr.Month, want)
			}
		}
		fast, ref := recordLineDataset(), recordLineDataset()
		dec := recordDecoder{d: fast, months: 2}
		fastErr, refErr := dec.decode(line), decodeRecordLine(ref, 2, line)
		if errText(fastErr) != errText(refErr) {
			t.Fatalf("%q: error %q, want %q", line, errText(fastErr), errText(refErr))
		}
		if !reflect.DeepEqual(fast.Months, ref.Months) {
			t.Fatalf("%q: decoded records differ from the reference", line)
		}
	})
}

// TestReadRecordCapacityBounded pins the Records sizing to the records a
// body sends: months that each take their first record right after a large
// month must not each reserve that month's count. The body sends n records
// to month 0, then alternates one record to month 0 and one to month k for
// k = 1…m; the capacity of every month's Records together stays within a
// small multiple of the records decoded.
func TestReadRecordCapacityBounded(t *testing.T) {
	const n, m = 1000, 200
	d := NewDataset()
	d.AddHospital(Hospital{Code: "H"})
	for k := 0; k <= m; k++ {
		d.Months = append(d.Months, &Monthly{Month: k})
	}
	var body bytes.Buffer
	if err := Write(&body, d); err != nil {
		t.Fatal(err)
	}
	line := func(month int) { fmt.Fprintf(&body, "{\"t\":%d,\"h\":0,\"p\":1,\"d\":null,\"m\":null}\n", month) }
	for i := 0; i < n; i++ {
		line(0)
	}
	for k := 1; k <= m; k++ {
		line(0)
		line(k)
	}
	got, err := Read(&body)
	if err != nil {
		t.Fatal(err)
	}
	records, capacity := 0, 0
	for _, month := range got.Months {
		records += len(month.Records)
		capacity += cap(month.Records)
	}
	if records != n+2*m {
		t.Fatalf("decoded %d records, want %d", records, n+2*m)
	}
	if capacity > 3*records {
		t.Fatalf("months reserve %d records for %d decoded", capacity, records)
	}
}
