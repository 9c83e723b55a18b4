package exp

import (
	"fmt"
	"runtime"

	"spacx/internal/dnn"
	"spacx/internal/sim"
)

// parallelism is the worker count every driver fans its sweep grid out
// with. Drivers enumerate their (model x layer x accelerator x design-point)
// grids up front, evaluate the independent points through engine.Map, and
// fold the index-addressed results sequentially — so any worker count,
// including 1, produces bit-identical rows.
var parallelism = runtime.GOMAXPROCS(0)

// SetParallelism installs the worker count used by every driver in this
// package (n <= 0 restores the default, runtime.GOMAXPROCS(0)). Like
// SetRecorder, it is not safe to call concurrently with a running driver;
// CLIs set it once at startup from their -j flag.
func SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	parallelism = n
}

// ResetCaches does nothing: every layer and packet run is evaluated
// directly, and no cache is kept between calls. It remains because the
// end-to-end benchmark (e2ebench/) still calls it before a cold report.
func ResetCaches() {}

// CacheSize always reports 0, since nothing in this package memoizes an
// evaluation. It remains because the end-to-end benchmark (e2ebench/)
// still reads it.
func CacheSize() int { return 0 }

// runGrid evaluates every (model, accelerator) pair of a sweep across the
// worker pool and returns results indexed [model][accelerator]. The drivers'
// normalization folds then walk the grid in the original sequential order;
// sweep names the progress phase and metric labels the points land under.
func runGrid(sweep string, models []dnn.Model, accs []sim.Accelerator, mode sim.Mode) ([][]sim.ModelResult, error) {
	flat, err := mapPoints(sweep, len(models)*len(accs), func(i int) (sim.ModelResult, error) {
		m := models[i/len(accs)]
		acc := accs[i%len(accs)]
		r, err := sim.Request{Accel: acc, Model: m, Mode: mode}.Totals(nil)
		if err != nil {
			return sim.ModelResult{}, fmt.Errorf("exp: %s on %s: %w", m.Name, acc.Name(), err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]sim.ModelResult, len(models))
	for i := range out {
		out[i] = flat[i*len(accs) : (i+1)*len(accs)]
	}
	return out, nil
}
