// Package engine is the concurrent sweep machinery behind the experiment
// drivers in internal/exp: a worker-pool map whose results are
// index-addressed, so a parallel sweep emits bit-identical output to the
// sequential one. It caches nothing; a sweep that revisits a point
// evaluates it again.
//
// Every driver follows the same shape: enumerate the sweep grid up front,
// evaluate each independent point through Map, then fold the index-addressed
// results sequentially into rows. Normalizations, arithmetic means, and any
// other cross-point arithmetic live in the fold, so the floating-point
// operation order never depends on goroutine scheduling.
//
// Cancellation: every fan-out takes a context.Context. Cancelling it
// abandons work that has not started — already-claimed points run to
// completion, unclaimed indices are marked with the context's error — so a
// long sweep interrupted by a signal (or a serving layer's shutdown) stops
// promptly without tearing down mid-point. An uncancelled context changes
// nothing: results remain bit-identical to the pre-context engine.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Map evaluates fn(0) .. fn(n-1) on up to workers goroutines and returns the
// results in index order. workers <= 0 means runtime.GOMAXPROCS(0); a single
// worker runs inline with no goroutines. Every index is evaluated even when
// some fail, and the error of the lowest failing index is returned — the
// same error a sequential run-to-completion loop would report, regardless of
// scheduling. Cancelling ctx (nil means context.Background) abandons indices
// that have not started; they report the context's error.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEach is Map without result collection: fn(i) runs once per index across
// the worker pool, and the lowest-index error is returned. Cancelling ctx
// abandons unstarted indices.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					// The claim is unconditional, the evaluation is not:
					// after cancellation the workers burn through the
					// remaining indices marking them abandoned, which
					// keeps the "lowest failing index" fold below exact.
					if err := ctx.Err(); err != nil {
						errs[i] = err
						continue
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
