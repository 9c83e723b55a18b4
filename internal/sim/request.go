package sim

import (
	"context"
	"fmt"

	"spacx/internal/dnn"
	"spacx/internal/obs"
	"spacx/internal/obs/tracing"
)

// Request bundles the parameters of one simulation query — accelerator,
// model, residency mode, and batch size — and is the adapter a serving or
// CLI layer uses to turn a decoded request into a RunVia call. The batch
// multiplier is applied to a copy of the model, so a Request never mutates
// the layer definitions it was built from.
type Request struct {
	Accel Accelerator
	Model dnn.Model
	Mode  Mode
	Batch int // samples processed together; <= 1 means 1
}

// Validate rejects requests no engine can evaluate.
func (r Request) Validate() error {
	if r.Batch < 0 {
		return fmt.Errorf("sim: batch must be >= 1, got %d", r.Batch)
	}
	return r.Model.Validate()
}

// batched returns the model with the batch multiplier applied to a copied
// layer slice.
func (r Request) batched() dnn.Model {
	if r.Batch <= 1 {
		return r.Model
	}
	m := r.Model
	m.Layers = append([]dnn.Layer(nil), m.Layers...)
	for i := range m.Layers {
		m.Layers[i] = m.Layers[i].WithBatch(r.Batch)
	}
	return m
}

// Points expands the request into the batch kernel's sweep points: one per
// layer of the batched model, in layer order, all sharing the request's
// accelerator and residency mode — the per-layer evaluations Run would make,
// as RunBatch input.
func (r Request) Points() []Point {
	m := r.batched()
	pts := make([]Point, len(m.Layers))
	for i, l := range m.Layers {
		pts[i] = Point{Accel: r.Accel, Layer: l, Mode: r.Mode}
	}
	return pts
}

// Run evaluates the request through the given layer runner (nil means
// RunLayer). The aggregation goes through RunVia, so any deterministic
// runner — including a memoized one — yields results bit-identical to Run.
func (r Request) Run(run LayerRunner) (ModelResult, error) {
	if err := r.Validate(); err != nil {
		return ModelResult{}, err
	}
	return RunVia(r.Accel, r.batched(), r.Mode, run)
}

// RunCtx is Run under a request-scoped trace: when ctx carries a trace (see
// internal/obs/tracing) the whole model evaluation is wrapped in a
// "sim:model" span, so the simulator's own compute time is attributable
// against the queue wait and cache lookups that preceded it. An untraced
// context costs one context value lookup.
func (r Request) RunCtx(ctx context.Context, run LayerRunner) (ModelResult, error) {
	_, sp := tracing.StartSpan(ctx, "sim:model")
	defer sp.End()
	return r.Run(run)
}

// RunObserved is Run with observability: progress logs flow into rec, the
// default runner becomes RunLayerObserved, and when rec can snapshot its
// state (an *obs.Registry) the snapshot is attached to the result's Metrics
// field. A non-nil run overrides the layer runner — callers that need both
// observability and, say, cancellation checks wrap RunLayerObserved
// themselves.
func (r Request) RunObserved(rec obs.Recorder, run LayerRunner) (ModelResult, error) {
	if err := r.Validate(); err != nil {
		return ModelResult{}, err
	}
	enabled := rec.Enabled()
	m := r.batched()
	if enabled {
		rec.Logger().Debug("sim: run start",
			"model", m.Name, "accel", r.Accel.Name(), "mode", r.Mode.String(),
			"layers", len(m.Layers), "batch", r.Batch)
	}
	if run == nil {
		run = func(acc Accelerator, l dnn.Layer, mode Mode) (LayerResult, error) {
			return RunLayerObserved(acc, l, mode, rec)
		}
	}
	res, err := RunVia(r.Accel, m, r.Mode, run)
	if err != nil {
		return ModelResult{}, err
	}
	if enabled {
		rec.Logger().Debug("sim: run done",
			"model", m.Name, "accel", r.Accel.Name(),
			"execSec", res.ExecSec, "computeSec", res.ComputeSec,
			"totalJ", res.TotalEnergy, "networkJ", res.NetworkEnergy)
		if sn, ok := rec.(obs.Snapshotter); ok {
			s := sn.Snapshot()
			res.Metrics = &s
		}
	}
	return res, nil
}
