package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// stamp records what a result was measured on and with.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	Seconds    int    `json:"seconds"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	// Source hashes the module's Go sources and go.mod files, which
	// identifies the code even in a checkout that is not a git repository.
	Source string `json:"source"`
}

func newStamp(workload string, cfg runConfig) stamp {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	trace := 0
	if cfg.Trace {
		trace = 1
	}
	return stamp{
		Workload:   workload,
		Seed:       cfg.Seed,
		Trace:      trace,
		Seconds:    int(cfg.Budget.Seconds()),
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    cfg.Workers,
		GOGC:       gogc,
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     gitCommit("."),
		Source:     sourceHash("."),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD of the git repository at root without running git;
// "none" when root is not a repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceHash hashes every .go and go.mod file under root, skipping hidden
// directories (build caches, .git).
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

const mib = 1 << 20

// memMark is the memory state at the start of a measured phase.
type memMark struct {
	totalAlloc uint64
}

// markMemory prepares a measured phase: it collects the garbage of whatever
// ran before, returns freed memory to the OS, and resets the kernel's RSS
// high-water mark to the current RSS, so the phase's peak and allocation
// volume are its own.
func markMemory() (memMark, error) {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return memMark{}, fmt.Errorf("resetting the RSS high-water mark: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{totalAlloc: ms.TotalAlloc}, nil
}

// since returns the MiB allocated and the peak RSS in MiB since the mark.
func (m memMark) since() (allocMiB, peakRSSMiB float64, err error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	peak, err := peakRSS()
	if err != nil {
		return 0, 0, err
	}
	return float64(ms.TotalAlloc-m.totalAlloc) / mib, float64(peak) / mib, nil
}

// peakRSS returns VmHWM from /proc/self/status, in bytes.
func peakRSS() (int64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
