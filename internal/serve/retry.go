package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// transientError marks a failure worth retrying: the operation may succeed
// on a later attempt with no change of input (I/O hiccup, injected fault,
// resource pressure). Everything unmarked is terminal.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// MarkTransient wraps err so Retryable reports it worth retrying. A nil err
// stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// Retryable classifies an error for the retry loop: only errors explicitly
// marked transient are retried. Context cancellation and deadline expiry are
// always terminal — the clock that would cover a retry is already spent —
// and they stay terminal even when a transient marker wraps them.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var te *transientError
	return errors.As(err, &te)
}

// RetryPolicy is a bounded, jittered exponential backoff schedule for
// transient failures. The zero value retries nothing (one attempt, no
// sleeps); DefaultRetryPolicy is the serving default.
type RetryPolicy struct {
	// Attempts is the total number of tries, including the first. Values
	// below 1 mean one attempt (no retry).
	Attempts int
	// Base is the delay before the first retry; each later retry multiplies
	// the previous delay by Multiplier, capped at Max.
	Base       time.Duration
	Max        time.Duration
	Multiplier float64
	// Jitter is the fraction of each delay drawn uniformly at random and
	// added on top (0.2 → delay × [1, 1.2)). Zero disables jitter.
	Jitter float64
	// Seed seeds the jitter source so tests are reproducible. Zero gives a
	// fixed default seed — backoff schedules never need to be secret, only
	// decorrelated across months, which the per-Do rng achieves.
	Seed int64
	// Sleep replaces time.Sleep in tests; nil uses the real clock (bounded
	// by the context's deadline).
	Sleep func(time.Duration)
}

// DefaultRetryPolicy is the serving core's schedule: three attempts at
// 50ms → 200ms (20% jitter, ×4 growth, 2s cap).
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Attempts: 3, Base: 50 * time.Millisecond, Max: 2 * time.Second, Multiplier: 4, Jitter: 0.2}
}

// Do runs op until it succeeds, fails terminally, exhausts the attempt
// budget, or the context ends. It returns the number of attempts made and
// the final error (wrapped with the attempt count when the budget ran out).
// onRetry, when non-nil, observes each scheduled retry before its backoff
// sleep — the serving core counts serve/retries there.
func (p RetryPolicy) Do(ctx context.Context, op func() error, onRetry func(attempt int, err error)) (int, error) {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5eed))
	delay := p.Base
	var err error
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil {
			return attempt, nil
		}
		if !Retryable(err) || attempt == attempts {
			if attempt > 1 && Retryable(err) {
				err = fmt.Errorf("serve: giving up after %d attempts: %w", attempt, err)
			}
			return attempt, err
		}
		if onRetry != nil {
			onRetry(attempt, err)
		}
		d := delay
		if p.Jitter > 0 && d > 0 {
			d += time.Duration(p.Jitter * rng.Float64() * float64(d))
		}
		if p.Max > 0 && d > p.Max {
			d = p.Max
		}
		if err := p.sleep(ctx, d); err != nil {
			return attempt, err
		}
		delay = time.Duration(float64(delay) * p.Multiplier)
		if p.Max > 0 && delay > p.Max {
			delay = p.Max
		}
	}
}

func (p RetryPolicy) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if p.Sleep != nil {
		p.Sleep(d)
		return ctx.Err()
	}
	// A context already done must win before the timer is armed: select
	// picks among ready cases at random, so a short timer that has also
	// fired would otherwise run the op again after cancellation.
	if err := ctx.Err(); err != nil {
		return err
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
