// Command mictool is the data-plane utility for MIC corpora.
//
//	mictool convert -in corpus.jsonl.gz -out corpus.micc [-format auto|jsonl|columnar] [-progress]
//	mictool info -in corpus.micc
//
// convert transcodes between the JSONL and MICC1 columnar formats. A
// columnar source streams month by month — the corpus never materializes in
// RAM — while a JSONL source is read fully first (its record lines may
// arrive in any month order) and then streamed out. info prints a file's
// header metadata plus per-month record counts and vocabulary sizes
// (distinct diseases and medicines) in sorted month order; a columnar
// source decodes one month block at a time, so only one month is ever
// resident.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"mictrend/internal/mic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mictool: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "convert":
		os.Exit(runConvert(os.Args[2:]))
	case "info":
		os.Exit(runInfo(os.Args[2:]))
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  mictool convert -in SRC -out DST [-format auto|jsonl|columnar] [-workers N] [-level N] [-progress]
  mictool info -in FILE`)
}

func runConvert(args []string) int {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	var (
		in       = fs.String("in", "", "source corpus (.jsonl, .jsonl.gz, or .micc); format sniffed by magic bytes")
		out      = fs.String("out", "", "destination path")
		format   = fs.String("format", "auto", "destination format: auto (by extension), jsonl, or columnar")
		workers  = fs.Int("workers", 0, "columnar block compression workers (0 = GOMAXPROCS); output bytes identical for every value")
		level    = fs.Int("level", 0, "columnar flate level (0 = default)")
		progress = fs.Bool("progress", false, "log per-month progress events")
	)
	fs.Parse(args)
	if *in == "" || *out == "" {
		fs.Usage()
		return 2
	}
	outFormat, err := mic.ParseFormat(*format)
	if err != nil {
		log.Print(err)
		return 2
	}
	if err := convert(*in, *out, outFormat, mic.StorageOptions{Workers: *workers, Level: *level}, *progress); err != nil {
		log.Print(err)
		os.Remove(*out)
		return 1
	}
	return 0
}

// convert transcodes in → out. With progress it logs a "convert" stage with
// one line per month, in the analysis pipeline's progress vocabulary.
func convert(in, out string, outFormat mic.Format, opts mic.StorageOptions, progress bool) error {
	srcFormat, err := mic.SniffFile(in)
	if err != nil {
		return err
	}
	start := time.Now()
	logf := func(format string, args ...any) {
		if progress {
			log.Printf(format, args...)
		}
	}

	var months int
	var writeMonths func(sw mic.StreamWriter) error
	var meta mic.StreamMeta
	switch srcFormat {
	case mic.FormatColumnar:
		// Month-at-a-time: only one decoded month is alive at any moment.
		cf, err := mic.OpenColumnarFile(in)
		if err != nil {
			return err
		}
		defer cf.Close()
		meta = cf.Meta()
		months = cf.Months()
		writeMonths = func(sw mic.StreamWriter) error {
			for t := 0; t < cf.Months(); t++ {
				m, err := cf.ReadMonth(t)
				if err != nil {
					return err
				}
				if err := sw.WriteMonth(m); err != nil {
					return err
				}
				logf("month-fitted month %d (%d/%d)", t, t+1, months)
			}
			return nil
		}
	default:
		// JSONL record lines may arrive in any month order, so the source is
		// read fully before the months stream out.
		ds, stats, _, err := mic.ReadDatasetFile(in, srcFormat, opts)
		if err != nil {
			return err
		}
		if stats.SkippedLines > 0 {
			log.Printf("warning: skipped %d malformed corpus line(s); first: %v", stats.SkippedLines, stats.FirstError)
		}
		meta = mic.NewStreamMeta(ds)
		months = len(ds.Months)
		writeMonths = func(sw mic.StreamWriter) error {
			for t, m := range ds.Months {
				if err := sw.WriteMonth(m); err != nil {
					return err
				}
				logf("month-fitted month %d (%d/%d)", t, t+1, months)
			}
			return nil
		}
	}

	logf("stage-start convert (%d units)", months)
	sw, wroteFormat, err := mic.NewStreamFileWriter(out, outFormat, meta, opts)
	if err != nil {
		return err
	}
	if err := writeMonths(sw); err != nil {
		sw.Close()
		return err
	}
	if err := sw.Close(); err != nil {
		return err
	}
	logf("stage-end convert (%v)", time.Since(start))
	srcInfo, _ := os.Stat(in)
	dstInfo, err := os.Stat(out)
	if err != nil {
		return err
	}
	if srcInfo != nil {
		fmt.Printf("%s (%s, %d bytes) -> %s (%s, %d bytes)\n",
			in, srcFormat, srcInfo.Size(), out, wroteFormat, dstInfo.Size())
	}
	return nil
}

func runInfo(args []string) int {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "corpus file to describe")
	fs.Parse(args)
	if *in == "" {
		fs.Usage()
		return 2
	}
	if err := info(os.Stdout, *in); err != nil {
		log.Print(err)
		return 1
	}
	return 0
}

func info(w io.Writer, path string) error {
	format, err := mic.SniffFile(path)
	if err != nil {
		return err
	}
	switch format {
	case mic.FormatColumnar:
		cf, err := mic.OpenColumnarFile(path)
		if err != nil {
			return err
		}
		defer cf.Close()
		meta := cf.Meta()
		total := 0
		for t := 0; t < cf.Months(); t++ {
			total += cf.MonthRecords(t)
		}
		fmt.Fprintf(w, "%s: columnar (MICC1), %d months, %d records, %d diseases, %d medicines, %d hospitals\n",
			path, meta.Months, total, len(meta.Diseases), len(meta.Medicines), len(meta.Hospitals))
		// Blocks are physically in month order; decode one at a time for the
		// per-month vocabulary so only one month is ever resident.
		for t := 0; t < cf.Months(); t++ {
			m, err := cf.ReadMonth(t)
			if err != nil {
				return err
			}
			printMonthInfo(w, m)
		}
	default:
		ds, stats, _, err := mic.ReadDatasetFile(path, format, mic.StorageOptions{})
		if err != nil {
			return err
		}
		if stats.SkippedLines > 0 {
			log.Printf("warning: skipped %d malformed corpus line(s)", stats.SkippedLines)
		}
		fmt.Fprintf(w, "%s: jsonl, %d months, %d records, %d diseases, %d medicines, %d hospitals\n",
			path, ds.T(), ds.NumRecords(), ds.Diseases.Len(), ds.Medicines.Len(), len(ds.Hospitals))
		// JSONL record lines may arrive in any month order, so sort the
		// decoded months by index before reporting.
		months := make([]*mic.Monthly, len(ds.Months))
		copy(months, ds.Months)
		sort.Slice(months, func(a, b int) bool { return months[a].Month < months[b].Month })
		for _, m := range months {
			printMonthInfo(w, m)
		}
	}
	return nil
}

// printMonthInfo reports one month's record count and vocabulary sizes: the
// number of distinct disease and medicine codes appearing in its records.
func printMonthInfo(w io.Writer, m *mic.Monthly) {
	diseases := make(map[mic.DiseaseID]struct{})
	medicines := make(map[mic.MedicineID]struct{})
	for i := range m.Records {
		r := &m.Records[i]
		for _, dc := range r.Diseases {
			diseases[dc.Disease] = struct{}{}
		}
		for _, id := range r.Medicines {
			medicines[id] = struct{}{}
		}
	}
	fmt.Fprintf(w, "  month %2d: %d records, %d diseases, %d medicines\n",
		m.Month, len(m.Records), len(diseases), len(medicines))
}
