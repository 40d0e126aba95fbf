package experiments

import (
	"errors"
	"sync/atomic"
	"testing"

	"mictrend/internal/mic"
)

func TestParallelForVisitsAll(t *testing.T) {
	const n = 100
	var visited [n]int32
	err := parallelFor(n, 4, func(i int) error {
		atomic.AddInt32(&visited[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range visited {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestParallelForPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := parallelFor(50, 3, func(i int) error {
		if i == 17 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestParallelForZeroItems(t *testing.T) {
	if err := parallelFor(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal("zero items should be a no-op")
	}
}

func TestParallelForDefaultWorkers(t *testing.T) {
	count := int32(0)
	if err := parallelFor(10, 0, func(int) error {
		atomic.AddInt32(&count, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d", count)
	}
}
func TestCapSeries(t *testing.T) {
	pairs := []mic.Pair{{Disease: 1}, {Disease: 2}, {Disease: 3}}
	if got := capSeries(pairs, 2); len(got) != 2 {
		t.Fatalf("cap 2 = %d", len(got))
	}
	if got := capSeries(pairs, 0); len(got) != 3 {
		t.Fatalf("cap 0 should keep all, got %d", len(got))
	}
	if got := capSeries(pairs, 10); len(got) != 3 {
		t.Fatalf("cap beyond length = %d", len(got))
	}
}

func TestSmallAndDefaultConfigsSane(t *testing.T) {
	for _, cfg := range []Config{SmallConfig(), DefaultConfig()} {
		if cfg.Months < 30 {
			t.Fatalf("months %d cannot cover the latest scenario event (month 24)", cfg.Months)
		}
		if cfg.HoldoutTrainFraction <= 0 || cfg.HoldoutTrainFraction > 1 {
			t.Fatal("bad holdout fraction")
		}
		if cfg.MinMonthlyFreq != 5 || cfg.MinSeriesTotal != 10 {
			t.Fatal("paper filter constants drifted")
		}
	}
}
