// Package par runs index-addressed fan-outs on one bounded pool. The
// pipeline fans out wherever its units are independent and numbered up
// front: one EM fit per month, one series reproduction per month, one
// columnar block decode per month, one contender fit per change-point
// candidate, one experiment per sampled series. A unit that writes only its
// own slot gives results identical for any worker count, and Each makes the
// failure reported identical too.
//
// Two fan-outs are not index pools and stay where they are. trend.scanAll's
// dispatcher admits series by worker-budget tokens that exact scans borrow
// for their contender fits, and resolves memo duplicates as it goes, so the
// work per series is not fixed when it is admitted. ColumnarWriter's
// compressors are a streaming pipeline: the number of blocks is unknown up
// front and blocks drain to the file in order.
package par

import (
	"context"
	"runtime"
	"sync"
)

// Each runs fn(i) for every i in [0, n) on min(workers, n) goroutines,
// where fn is one worker's function from newWorker; workers ≤ 0 means
// GOMAXPROCS. The calling goroutine is one of the workers.
//
//   - newWorker is called once per worker, on the calling goroutine, before
//     any index runs, so each worker owns the scratch its function closes
//     over.
//   - Indices are claimed in ascending order from one counter. With one
//     worker, every index runs in order on the calling goroutine.
//   - Claiming stops once ctx is done or any index has failed, that is,
//     returned an error or panicked. An index already claimed runs to
//     completion.
//   - Every index below a failed one was claimed before it, so the outcome
//     reported is always the lowest failing index's, for any worker count:
//     its error, returned, or its panic, re-raised on the calling goroutine
//     after all workers have stopped.
//   - Otherwise Each returns ctx.Err().
func Each(ctx context.Context, n, workers int, newWorker func() func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fns := make([]func(int) error, min(workers, n))
	for w := range fns {
		fns[w] = newWorker()
	}
	var (
		mu       sync.Mutex
		next     int
		failed   = n // lowest failed index so far; n while none has
		failErr  error
		failVal  any // what index failed panicked with, when it panicked
		panicked bool
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || failed < n || ctx.Err() != nil {
			return 0, false
		}
		next++
		return next - 1, true
	}
	fail := func(i int, err error, val any, isPanic bool) {
		mu.Lock()
		defer mu.Unlock()
		if i < failed {
			failed, failErr, failVal, panicked = i, err, val, isPanic
		}
	}
	work := func(fn func(int) error) {
		for i, ok := claim(); ok; i, ok = claim() {
			func() {
				defer func() {
					if r := recover(); r != nil {
						fail(i, nil, r, true)
					}
				}()
				if err := fn(i); err != nil {
					fail(i, err, nil, false)
				}
			}()
		}
	}
	var wg sync.WaitGroup
	for _, fn := range fns[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(fn)
		}()
	}
	work(fns[0])
	wg.Wait()
	if failed < n {
		if panicked {
			panic(failVal)
		}
		return failErr
	}
	return ctx.Err()
}
