package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	n := 257
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{0, 1, 2, 7, 64, n + 5} {
		got, err := Map(context.Background(), workers, n, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	failAt := map[int]bool{3: true, 40: true, 97: true}
	for _, workers := range []int{1, 8} {
		_, err := Map(context.Background(), workers, 100, func(i int) (int, error) {
			if failAt[i] {
				return 0, fmt.Errorf("point %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "point 3 failed" {
			t.Errorf("workers=%d: err = %v, want the lowest-index failure", workers, err)
		}
	}
}

func TestMapEveryIndexRunsDespiteErrors(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(context.Background(), 4, 50, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("first point fails")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if ran.Load() != 50 {
		t.Errorf("ran %d of 50 points; errors must not skip work", ran.Load())
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestMapUsesBoundedWorkers(t *testing.T) {
	var inFlight, peak atomic.Int64
	workers := 3
	_, err := Map(context.Background(), workers, 64, func(i int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		runtime.Gosched()
		inFlight.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > int64(workers) {
		t.Errorf("peak concurrency %d exceeds worker bound %d", peak.Load(), workers)
	}
}

func TestMapNilContextMeansBackground(t *testing.T) {
	got, err := Map(nil, 4, 10, func(i int) (int, error) { return i, nil })
	if err != nil || len(got) != 10 {
		t.Fatalf("nil ctx: %v %v", got, err)
	}
}

func TestForEachCancelAbandonsUnstartedWork(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		release := make(chan struct{})
		err := ForEach(ctx, workers, 100, func(i int) error {
			if ran.Add(1) == int64(workers) {
				cancel()       // cancel once every worker has claimed a point
				close(release) // then let the claimed points finish
			}
			<-release
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() >= 100 {
			t.Errorf("workers=%d: all 100 points ran despite cancellation", workers)
		}
	}
}

func TestForEachCancelPrefersLowerIndexRealError(t *testing.T) {
	// A real failure at index 0 outranks the cancellation error of the
	// abandoned higher indices, matching the sequential fold.
	ctx, cancel := context.WithCancel(context.Background())
	err := ForEach(ctx, 1, 10, func(i int) error {
		if i == 0 {
			cancel()
			return errors.New("point 0 failed")
		}
		return nil
	})
	if err == nil || err.Error() != "point 0 failed" {
		t.Errorf("err = %v, want the index-0 failure", err)
	}
}

func TestForEachPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEach(ctx, 4, 50, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d points ran under a pre-cancelled context", ran.Load())
	}
}
