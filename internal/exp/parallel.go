package exp

import (
	"fmt"
	"runtime"

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
// are deterministic, so sharing them is invisible in the output. An entry
// holds only the layer's scalar outcome (sim.LayerOutcome), never its
// mapping: no driver reads the mapping, so the memo's heap stays at the
// scalars.
var layerCache engine.Cache[layerKey, sim.LayerOutcome]

// detailedCache memoizes epoch-pipelined detailed-engine outcomes, which
// EngineAgreement pairs with the analytical ones.
var detailedCache engine.Cache[layerKey, sim.LayerOutcome]

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

// layerCached is the memoized scalar outcome of sim.RunLayer, the one way
// every driver evaluates a layer. Accelerators whose network model has no
// fingerprint are evaluated directly (never cached).
func layerCached(acc sim.Accelerator, l dnn.Layer, mode sim.Mode) (sim.LayerOutcome, error) {
	return memoized(&layerCache, sim.RunLayer, acc, l, mode)
}

// detailedCached is the memoized scalar outcome of sim.RunLayerDetailed.
func detailedCached(acc sim.Accelerator, l dnn.Layer, mode sim.Mode) (sim.LayerOutcome, error) {
	return memoized(&detailedCache, sim.RunLayerDetailed, acc, l, mode)
}

func memoized(c *engine.Cache[layerKey, sim.LayerOutcome],
	run func(sim.Accelerator, dnn.Layer, sim.Mode) (sim.LayerResult, error),
	acc sim.Accelerator, l dnn.Layer, mode sim.Mode) (sim.LayerOutcome, error) {
	eval := func() (sim.LayerOutcome, error) {
		r, err := run(acc, l, mode)
		return r.LayerOutcome, err
	}
	k, ok := keyFor(acc, l, mode)
	if !ok {
		return eval()
	}
	return c.Do(k, eval)
}

// runLayerCached is the memoized sim.LayerRunner the model drivers
// aggregate through: it rebuilds r from the key's layer and the cached
// scalars, so r carries no mapping (Profile and FlowSecs are zero).
func runLayerCached(acc sim.Accelerator, l dnn.Layer, mode sim.Mode, r *sim.LayerResult) error {
	o, err := layerCached(acc, l, mode)
	if err != nil {
		return err
	}
	*r = sim.LayerResult{Layer: l, LayerOutcome: o}
	return nil
}

// runModelCached is sim.Run's totals with every layer evaluation memoized:
// the aggregation goes through sim.Request.Totals, so every total is
// bit-identical to sim.Run's, and the result keeps no per-layer slice.
func runModelCached(acc sim.Accelerator, m dnn.Model, mode sim.Mode) (sim.ModelResult, error) {
	return sim.Request{Accel: acc, Model: m, Mode: mode}.Totals(runLayerCached)
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
