package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mictrend/internal/mic"
	"mictrend/internal/micgen"
)

// TestConvertRoundTrip drives the convert pipeline through both directions
// and checks the JSONL → columnar → JSONL cycle is byte-identical.
func TestConvertRoundTrip(t *testing.T) {
	ds, _, err := micgen.Generate(micgen.Config{Seed: 3, Months: 6, RecordsPerMonth: 200})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "src.jsonl")
	col := filepath.Join(dir, "mid.micc")
	back := filepath.Join(dir, "back.jsonl")
	if _, err := mic.WriteDatasetFile(src, mic.FormatJSONL, ds, mic.StorageOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := convert(src, col, mic.FormatAuto, mic.StorageOptions{}, false); err != nil {
		t.Fatalf("jsonl -> columnar: %v", err)
	}
	if f, err := mic.SniffFile(col); err != nil || f != mic.FormatColumnar {
		t.Fatalf("converted file sniffs as %v, %v", f, err)
	}
	if err := convert(col, back, mic.FormatJSONL, mic.StorageOptions{}, false); err != nil {
		t.Fatalf("columnar -> jsonl: %v", err)
	}
	a, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("JSONL round-trip through columnar differs: %d vs %d bytes", len(a), len(b))
	}
}

// TestInfoPerMonthVocabulary pins the info report: per-month record counts
// AND vocabulary sizes (distinct diseases/medicines), in sorted month order,
// with identical per-month lines from the JSONL and columnar backends.
func TestInfoPerMonthVocabulary(t *testing.T) {
	ds, _, err := micgen.Generate(micgen.Config{Seed: 5, Months: 4, RecordsPerMonth: 150})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "src.jsonl")
	col := filepath.Join(dir, "src.micc")
	if _, err := mic.WriteDatasetFile(src, mic.FormatJSONL, ds, mic.StorageOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := convert(src, col, mic.FormatColumnar, mic.StorageOptions{}, false); err != nil {
		t.Fatal(err)
	}

	monthLines := func(path string) []string {
		var buf bytes.Buffer
		if err := info(&buf, path); err != nil {
			t.Fatalf("info %s: %v", path, err)
		}
		var lines []string
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(l, "  month") {
				lines = append(lines, l)
			}
		}
		return lines
	}

	jl := monthLines(src)
	cl := monthLines(col)
	if len(jl) != 4 {
		t.Fatalf("jsonl info printed %d month lines, want 4:\n%v", len(jl), jl)
	}
	if !reflect.DeepEqual(jl, cl) {
		t.Fatalf("per-month lines differ between backends:\njsonl:    %v\ncolumnar: %v", jl, cl)
	}
	for i, l := range jl {
		if !strings.Contains(l, fmt.Sprintf("month %2d:", i)) {
			t.Errorf("month line %d out of sorted order: %q", i, l)
		}
		if !strings.Contains(l, "records,") || !strings.Contains(l, "diseases,") || !strings.Contains(l, "medicines") {
			t.Errorf("month line missing vocabulary sizes: %q", l)
		}
	}

	// Cross-check one month's counts against the dataset itself.
	var want0 string
	{
		var buf bytes.Buffer
		printMonthInfo(&buf, ds.Months[0])
		want0 = strings.TrimRight(buf.String(), "\n")
	}
	if jl[0] != want0 {
		t.Errorf("month 0 line = %q, want %q", jl[0], want0)
	}
}

func TestConvertRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "junk")
	if err := os.WriteFile(src, []byte("not a corpus at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.micc")
	if err := convert(src, out, mic.FormatAuto, mic.StorageOptions{}, false); err == nil {
		t.Fatal("convert accepted garbage input")
	}
}
