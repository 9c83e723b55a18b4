package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
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

func TestCacheComputesOncePerKey(t *testing.T) {
	var c Cache[int, int]
	var computes atomic.Int64
	err := ForEach(context.Background(), 8, 100, func(i int) error {
		v, err := c.Do(i%5, func() (int, error) {
			computes.Add(1)
			return (i % 5) * 10, nil
		})
		if err != nil {
			return err
		}
		if v != (i%5)*10 {
			return fmt.Errorf("key %d: got %d", i%5, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 5 {
		t.Errorf("computed %d times for 5 keys", computes.Load())
	}
	if c.Len() != 5 {
		t.Errorf("cache holds %d keys, want 5", c.Len())
	}
}

func TestCacheCachesErrors(t *testing.T) {
	var c Cache[string, int]
	var computes int
	for i := 0; i < 3; i++ {
		_, err := c.Do("k", func() (int, error) {
			computes++
			return 0, errors.New("deterministic failure")
		})
		if err == nil {
			t.Fatal("expected the cached error")
		}
	}
	if computes != 1 {
		t.Errorf("failing computation ran %d times, want 1", computes)
	}
}

func TestCacheReset(t *testing.T) {
	var c Cache[int, int]
	if _, err := c.Do(1, func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Errorf("len after reset = %d", c.Len())
	}
	recomputed := false
	if _, err := c.Do(1, func() (int, error) { recomputed = true; return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Error("reset did not drop the entry")
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

func TestCachePutAndCached(t *testing.T) {
	var c Cache[string, int]
	noCompute := func() (int, error) {
		t.Fatal("Do must not recompute a seeded key")
		return 0, nil
	}
	c.Put("a", 42, nil)
	// A Put result short-circuits Do without recomputing.
	if v, err := c.Do("a", noCompute); err != nil || v != 42 {
		t.Fatalf("Do after Put = %d, %v", v, err)
	}
	// First writer wins; a later Put loses to the existing entry.
	c.Put("a", 7, nil)
	if v, _ := c.Do("a", noCompute); v != 42 {
		t.Fatalf("second Put must lose: got %d", v)
	}
	// A Put never overrides a computed entry either.
	if v, _ := c.Do("c", func() (int, error) { return 1, nil }); v != 1 {
		t.Fatalf("Do computed %d, want 1", v)
	}
	c.Put("c", 2, nil)
	if v, _ := c.Do("c", noCompute); v != 1 {
		t.Fatalf("Put after Do must lose: got %d", v)
	}
	// A seeded error is memoized like a computed one.
	boom := errors.New("boom")
	c.Put("b", 0, boom)
	if _, err := c.Do("b", noCompute); err != boom {
		t.Fatalf("Do must return the seeded error, got %v", err)
	}
}

func TestCachePutConcurrentWithDo(t *testing.T) {
	var c Cache[int, int]
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				c.Put(1, 5, nil)
			} else {
				if v, err := c.Do(1, func() (int, error) { return 5, nil }); err != nil || v != 5 {
					t.Errorf("Do = %d, %v", v, err)
				}
			}
		}(g)
	}
	wg.Wait()
	v, err := c.Do(1, func() (int, error) {
		t.Fatal("Do must not recompute a settled key")
		return 0, nil
	})
	if err != nil || v != 5 {
		t.Fatalf("Do = %d, %v", v, err)
	}
}
