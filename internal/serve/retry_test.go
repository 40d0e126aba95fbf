package serve

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("boom"), false},
		{"transient", MarkTransient(errors.New("boom")), true},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		// A transient marker cannot launder a spent clock into a retry.
		{"transient-canceled", MarkTransient(context.Canceled), false},
		{"transient-deadline", MarkTransient(context.DeadlineExceeded), false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
	if MarkTransient(nil) != nil {
		t.Error("MarkTransient(nil) should stay nil")
	}
	// The marker must not hide the underlying error from errors.Is.
	sentinel := errors.New("sentinel")
	if !errors.Is(MarkTransient(sentinel), sentinel) {
		t.Error("MarkTransient breaks errors.Is unwrapping")
	}
}

// TestRetryBackoffSchedule pins the deterministic (jitter-free) schedule:
// exponential growth from Base by Multiplier, capped at Max.
func TestRetryBackoffSchedule(t *testing.T) {
	var sleeps []time.Duration
	p := RetryPolicy{
		Attempts:   4,
		Base:       100 * time.Millisecond,
		Max:        350 * time.Millisecond,
		Multiplier: 2,
		Sleep:      func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	calls, retries := 0, 0
	attempts, err := p.Do(context.Background(), func() error {
		calls++
		if calls < 4 {
			return MarkTransient(errors.New("flaky"))
		}
		return nil
	}, func(attempt int, err error) { retries++ })
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 4 || calls != 4 || retries != 3 {
		t.Fatalf("attempts=%d calls=%d retries=%d, want 4/4/3", attempts, calls, retries)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 350 * time.Millisecond}
	if !reflect.DeepEqual(sleeps, want) {
		t.Fatalf("backoff schedule = %v, want %v", sleeps, want)
	}
}

// TestRetryJitterDeterministic: the same seed reproduces the same jittered
// schedule, and jitter only ever adds (bounded by the fraction).
func TestRetryJitterDeterministic(t *testing.T) {
	run := func() []time.Duration {
		var sleeps []time.Duration
		p := RetryPolicy{
			Attempts:   3,
			Base:       100 * time.Millisecond,
			Multiplier: 2,
			Jitter:     0.2,
			Seed:       99,
			Sleep:      func(d time.Duration) { sleeps = append(sleeps, d) },
		}
		p.Do(context.Background(), func() error { return MarkTransient(errors.New("x")) }, nil)
		return sleeps
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
	if len(a) != 2 {
		t.Fatalf("slept %d times, want 2", len(a))
	}
	bases := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	for i, d := range a {
		lo, hi := bases[i], time.Duration(float64(bases[i])*1.2)
		if d < lo || d > hi {
			t.Fatalf("sleep %d = %v outside [%v, %v]", i, d, lo, hi)
		}
	}
}

func TestRetryTerminalStopsImmediately(t *testing.T) {
	calls := 0
	p := RetryPolicy{Attempts: 5, Sleep: func(time.Duration) {}}
	terminal := errors.New("terminal")
	attempts, err := p.Do(context.Background(), func() error {
		calls++
		return terminal
	}, nil)
	if attempts != 1 || calls != 1 {
		t.Fatalf("attempts=%d calls=%d, want 1/1", attempts, calls)
	}
	if !errors.Is(err, terminal) {
		t.Fatalf("err = %v, want the terminal error", err)
	}
	if strings.Contains(err.Error(), "giving up") {
		t.Fatal("terminal error wrapped as an exhausted budget")
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	flaky := errors.New("flaky")
	p := RetryPolicy{Attempts: 3, Sleep: func(time.Duration) {}}
	attempts, err := p.Do(context.Background(), func() error {
		return MarkTransient(flaky)
	}, nil)
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if !errors.Is(err, flaky) {
		t.Fatalf("exhausted error lost its cause: %v", err)
	}
	if !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("exhausted error does not say so: %v", err)
	}
}

func TestRetryContextCancelDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := RetryPolicy{Attempts: 5, Base: time.Millisecond}
	_, err := p.Do(ctx, func() error {
		calls++
		cancel() // the world ends while the op is in flight
		return MarkTransient(errors.New("flaky"))
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("op ran %d times after cancellation, want 1", calls)
	}
}

// TestRetrySleepCancelledContext: a backoff sleep under an already
// cancelled context reports the cancellation every time, even when its
// timer is short enough to be ready as well.
func TestRetrySleepCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var p RetryPolicy
	wrong := 0
	for i := 0; i < 100000; i++ {
		if err := p.sleep(ctx, time.Nanosecond); !errors.Is(err, context.Canceled) {
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("%d of 100000 sleeps under a cancelled context returned without context.Canceled", wrong)
	}
}

func TestRetryZeroValueSingleAttempt(t *testing.T) {
	var p RetryPolicy
	calls := 0
	attempts, err := p.Do(context.Background(), func() error {
		calls++
		return MarkTransient(errors.New("x"))
	}, nil)
	if attempts != 1 || calls != 1 || err == nil {
		t.Fatalf("zero-value policy: attempts=%d calls=%d err=%v", attempts, calls, err)
	}
}
