package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// goroutineID parses the running goroutine's id from its stack header, so a
// test can tell whether an index ran on the calling goroutine.
func goroutineID() string {
	var buf [64]byte
	s := string(buf[:runtime.Stack(buf[:], false)])
	var id string
	fmt.Sscanf(s, "goroutine %s", &id)
	return id
}

func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100} {
		for _, workers := range []int{0, 1, 2, 7} {
			runs := make([]atomic.Int32, n)
			var made atomic.Int32
			err := Each(context.Background(), n, workers, func() func(int) error {
				made.Add(1)
				return func(i int) error {
					runs[i].Add(1)
					return nil
				}
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, got)
				}
			}
			limit := workers
			if limit <= 0 {
				limit = runtime.GOMAXPROCS(0)
			}
			if got := int(made.Load()); got > min(limit, n) {
				t.Fatalf("n=%d workers=%d: newWorker called %d times, want at most %d", n, workers, got, min(limit, n))
			}
		}
	}
}

func TestEachOneWorkerRunsInOrderOnCaller(t *testing.T) {
	caller := goroutineID()
	var order []int
	err := Each(context.Background(), 20, 1, func() func(int) error {
		return func(i int) error {
			if id := goroutineID(); id != caller {
				t.Errorf("index %d ran on goroutine %s, caller is %s", i, id, caller)
			}
			order = append(order, i)
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want 0…19 ascending", order)
		}
	}
	if len(order) != 20 {
		t.Fatalf("%d indices ran, want 20", len(order))
	}
}

// failAt returns a newWorker whose indices lo < hi both fail, one by a
// panic and the other by an error. Index lo waits until hi has failed, so
// the higher failure is always the first in time.
func failAt(lo, hi int, loPanics bool, hiFailed chan struct{}, once *sync.Once) func() func(int) error {
	return func() func(int) error {
		return func(i int) error {
			switch i {
			case hi:
				once.Do(func() { close(hiFailed) })
				if loPanics {
					return fmt.Errorf("error at %d", i)
				}
				panic(fmt.Sprintf("panic at %d", i))
			case lo:
				<-hiFailed
				if loPanics {
					panic(fmt.Sprintf("panic at %d", i))
				}
				return fmt.Errorf("error at %d", i)
			}
			return nil
		}
	}
}

func TestEachLowestFailureWins(t *testing.T) {
	const lo, hi = 3, 4
	for _, loPanics := range []bool{false, true} {
		for _, workers := range []int{2, 7} {
			for run := 0; run < 50; run++ {
				hiFailed := make(chan struct{})
				var once sync.Once
				var err error
				var rec any
				func() {
					defer func() { rec = recover() }()
					err = Each(context.Background(), 40, workers, failAt(lo, hi, loPanics, hiFailed, &once))
				}()
				want := fmt.Sprintf("error at %d", lo)
				if loPanics {
					want = fmt.Sprintf("panic at %d", lo)
					if rec != want || err != nil {
						t.Fatalf("workers=%d run %d: recovered %v, err %v; want panic %q", workers, run, rec, err, want)
					}
					continue
				}
				if rec != nil || err == nil || err.Error() != want {
					t.Fatalf("workers=%d run %d: recovered %v, err %v; want error %q", workers, run, rec, err, want)
				}
			}
		}
	}
}

// TestEachWorkerPanicRecoverableByCaller: a panic on a worker goroutine
// reaches a recover on the caller's. Indices that land on the caller wait
// until one has run elsewhere, and every index run elsewhere panics.
func TestEachWorkerPanicRecoverableByCaller(t *testing.T) {
	caller := goroutineID()
	elsewhere := make(chan struct{})
	var once sync.Once
	var rec any
	func() {
		defer func() { rec = recover() }()
		_ = Each(context.Background(), 8, 4, func() func(int) error {
			return func(i int) error {
				if goroutineID() == caller {
					<-elsewhere
					return nil
				}
				once.Do(func() { close(elsewhere) })
				panic("boom")
			}
		})
	}()
	if rec != "boom" {
		t.Fatalf("recovered %v, want boom", rec)
	}
}

// TestEachStopsClaiming: once ctx is done or an index has failed, no more
// indices are claimed, so only those already claimed run: index 10, which
// stops the pool, those below it, and at most one in flight on each other
// worker.
func TestEachStopsClaiming(t *testing.T) {
	errStop := errors.New("stop")
	for _, cancels := range []bool{true, false} {
		for _, workers := range []int{1, 3} {
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Int32
			err := Each(ctx, 1000, workers, func() func(int) error {
				return func(i int) error {
					ran.Add(1)
					if i != 10 {
						return nil
					}
					if cancels {
						cancel()
						return nil
					}
					return errStop
				}
			})
			cancel()
			want := errStop
			if cancels {
				want = context.Canceled
			}
			if !errors.Is(err, want) {
				t.Fatalf("cancels=%v workers=%d: err = %v, want %v", cancels, workers, err, want)
			}
			if got := int(ran.Load()); got > 10+workers {
				t.Fatalf("cancels=%v workers=%d: %d indices ran, want at most %d", cancels, workers, got, 10+workers)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Each(ctx, 5, 2, func() func(int) error {
		return func(i int) error {
			t.Errorf("index %d ran under a done context", i)
			return nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
}
