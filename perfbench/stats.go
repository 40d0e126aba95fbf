package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"mictrend/internal/obs"
)

// median returns the median of xs (the mean of the middle pair for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample with at least p percent of the samples at or below it. Over 43
// samples p75 is the 33rd smallest, which leaves 10 samples beyond it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	k = min(max(k, 1), len(s))
	return s[k-1]
}

// logSamples prints a metric's samples to stderr, so a run's spread can be
// read next to its median.
func logSamples(name string, xs []float64) {
	fmt.Fprintf(os.Stderr, "perfbench: %s samples:", name)
	for _, x := range xs {
		fmt.Fprintf(os.Stderr, " %.4g", x)
	}
	fmt.Fprintln(os.Stderr)
}

// loopSample is one call of an open loop.
type loopSample struct {
	// Latency runs from when the call was due to when it returned, so a call
	// delayed by an earlier stall is charged the wait.
	Latency time.Duration
	// Lateness is how long after its due time the call was sent.
	Lateness time.Duration
	Err      error
}

// openLoop issues call(i) on a fixed schedule, call i being due at
// start + i·period, until stop is closed. The calls share one connection, so
// a call still running when the next is due delays it; the delayed call is
// still timed from its due time.
func openLoop(start time.Time, period time.Duration, stop <-chan struct{}, call func(i int) error) []loopSample {
	var out []loopSample
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return out
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		sent := time.Now()
		err := call(i)
		out = append(out, loopSample{Latency: time.Since(due), Lateness: sent.Sub(due), Err: err})
	}
}

// laneBench is the trace lane of the benchmark's own layer spans; the lanes
// after it hold the per-worker detect spans. The program's lanes are 0–5.
const laneBench int64 = 6

// layerClock times the benchmark's calls into each layer and, when a tracer
// is set, records each call as a span on the benchmark's lane.
type layerClock struct {
	tracer *obs.Tracer
}

// time runs f and returns how long it took.
func (lc layerClock) time(name string, f func() error) (time.Duration, error) {
	return lc.timeOn(laneBench, name, "", f)
}

// timeOn is time on an explicit lane, with span detail.
func (lc layerClock) timeOn(lane int64, name, detail string, f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	if lc.tracer != nil {
		sp := obs.SpanEvent{Cat: "bench", Name: name, TID: lane, Start: t0, Duration: d, Month: -1, Series: detail}
		if err != nil {
			sp.Err = err.Error()
		}
		lc.tracer.Observe(sp)
	}
	return d, err
}

// spanTotal sums the durations of the collected spans with the given name.
func spanTotal(spans []obs.SpanEvent, name string) time.Duration {
	var d time.Duration
	for _, sp := range spans {
		if sp.Name == name {
			d += sp.Duration
		}
	}
	return d
}
