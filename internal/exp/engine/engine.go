// Package engine is the concurrent sweep machinery behind the experiment
// drivers in internal/exp: a worker-pool map whose results are
// index-addressed (so a parallel sweep emits bit-identical output to the
// sequential one), and a memoization cache for repeated deterministic
// evaluations such as dataflow mapping searches.
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

// Cache memoizes a deterministic computation per comparable key. Concurrent
// callers of the same key share one computation (the rest block until it
// finishes), so a sweep that revisits a (config, layer, mode) point pays for
// it once. Errors are cached like values: a deterministic computation that
// failed once will fail identically every time.
type Cache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*cacheEntry[V]
}

type cacheEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// Do returns the cached result for key, computing and storing it on first
// use.
func (c *Cache[K, V]) Do(key K, compute func() (V, error)) (V, error) {
	e := c.entry(key)
	e.once.Do(func() { e.v, e.err = compute() })
	return e.v, e.err
}

// Put stores a precomputed result for key, winning only if no computation
// for that key has completed or started. Callers that evaluate a key outside
// Do use it to seed the cache (the Fig 16 packet-run memo stores observed
// runs this way); a concurrent Do for the same key blocks until the Put
// lands and then returns the seeded value.
func (c *Cache[K, V]) Put(key K, v V, err error) {
	e := c.entry(key)
	e.once.Do(func() { e.v, e.err = v, err })
}

func (c *Cache[K, V]) entry(key K) *cacheEntry[V] {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*cacheEntry[V])
	}
	e, ok := c.m[key]
	if !ok {
		e = &cacheEntry[V]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	return e
}

// Len reports how many keys have been interned (including in-flight ones).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Reset drops every memoized entry.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}
