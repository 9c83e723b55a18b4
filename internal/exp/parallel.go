package exp

import (
	"fmt"
	"runtime"

	"spacx/internal/dataflow"
	"spacx/internal/dnn"
	"spacx/internal/exp/engine"
	"spacx/internal/network"
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

// layerKey identifies one memoizable layer evaluation: the accelerator
// configuration (architecture geometry, buffer sizes, dataflow, and the
// network fingerprint), the layer shape, and the residency mode. Every field
// that can change a LayerResult is part of the key.
type layerKey struct {
	arch     string
	net      string
	flow     string
	m, n     int
	vecWidth int
	clockHz  float64
	peBuf    int
	gb       int
	gef, gk  int
	layer    dnn.Layer
	mode     sim.Mode
}

func keyFor(acc sim.Accelerator, l dnn.Layer, mode sim.Mode) (layerKey, bool) {
	fp, ok := network.FingerprintOf(acc.Arch.Net)
	if !ok {
		return layerKey{}, false
	}
	return layerKey{
		arch: acc.Arch.Name, net: fp, flow: acc.Flow.Name(),
		m: acc.Arch.M, n: acc.Arch.N,
		vecWidth: acc.Arch.VectorWidth, clockHz: acc.Arch.ClockHz,
		peBuf: acc.Arch.PEBufBytes, gb: acc.Arch.GBBytes,
		gef: acc.Arch.GEF, gk: acc.Arch.GK,
		layer: l, mode: mode,
	}, true
}

// layerCache memoizes analytical layer evaluations across drivers: the
// figure grids revisit the same (accelerator, layer, mode) points many times
// (Fig 13 and Fig 15 share models, the adaptive study re-runs every layer on
// 16 granularities, Fig 16's load derivation replays whole models). Results
// are deterministic, so sharing them is invisible in the output. Cached
// LayerResults carry no mapping (see runLayerCached) and are shared
// shallowly — drivers must not mutate them.
var layerCache engine.Cache[layerKey, sim.LayerResult]

// detailedCache memoizes epoch-pipelined detailed-engine evaluations, which
// EngineAgreement pairs with the analytical ones.
var detailedCache engine.Cache[layerKey, sim.LayerResult]

// ResetCaches drops all memoized layer and packet-simulation evaluations.
// Tests use it to time cold sweeps and to prove parallel == sequential from
// a cold start.
func ResetCaches() {
	layerCache.Reset()
	detailedCache.Reset()
	packetCache.Reset()
}

// CacheSize reports how many layer evaluations are currently memoized.
func CacheSize() int { return layerCache.Len() + detailedCache.Len() }

// runLayerCached is the memoized sim.RunLayer every driver evaluates its
// layers through. The memo keeps each result without its mapping (Profile,
// FlowSecs): no driver reads those fields, and dropping them keeps the
// memo's heap to the scalar results. Accelerators whose network model has
// no fingerprint are evaluated directly (never cached).
func runLayerCached(acc sim.Accelerator, l dnn.Layer, mode sim.Mode) (sim.LayerResult, error) {
	k, ok := keyFor(acc, l, mode)
	if !ok {
		return sim.RunLayer(acc, l, mode)
	}
	return layerCache.Do(k, func() (sim.LayerResult, error) {
		r, err := sim.RunLayer(acc, l, mode)
		r.Profile, r.FlowSecs = dataflow.Profile{}, nil
		return r, err
	})
}

// runLayerDetailedCached is the memoized sim.RunLayerDetailed.
func runLayerDetailedCached(acc sim.Accelerator, l dnn.Layer, mode sim.Mode) (sim.LayerResult, error) {
	k, ok := keyFor(acc, l, mode)
	if !ok {
		return sim.RunLayerDetailed(acc, l, mode)
	}
	return detailedCache.Do(k, func() (sim.LayerResult, error) {
		return sim.RunLayerDetailed(acc, l, mode)
	})
}

// runModelCached is sim.Run with every layer evaluation memoized; the
// aggregation goes through sim.Request.Run, so results are bit-identical to
// sim.Run apart from the mapping runLayerCached drops.
func runModelCached(acc sim.Accelerator, m dnn.Model, mode sim.Mode) (sim.ModelResult, error) {
	return sim.Request{Accel: acc, Model: m, Mode: mode}.Run(runLayerCached)
}

// runGrid evaluates every (model, accelerator) pair of a sweep across the
// worker pool and returns results indexed [model][accelerator]. The drivers'
// normalization folds then walk the grid in the original sequential order;
// sweep names the progress phase and metric labels the points land under.
func runGrid(sweep string, models []dnn.Model, accs []sim.Accelerator, mode sim.Mode) ([][]sim.ModelResult, error) {
	flat, err := mapPoints(sweep, len(models)*len(accs), func(i int) (sim.ModelResult, error) {
		m := models[i/len(accs)]
		acc := accs[i%len(accs)]
		r, err := runModelCached(acc, m, mode)
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
