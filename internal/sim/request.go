package sim

import (
	"fmt"

	"spacx/internal/dnn"
	"spacx/internal/obs"
)

// Request bundles the parameters of one simulation query — accelerator,
// model, residency mode, and batch size. Its Run and Totals methods are the
// one model aggregation every caller goes through. The batch multiplier is
// applied to each layer as it is evaluated, so a Request never mutates the
// layer definitions it was built from.
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

// layer returns the model's i-th layer with the batch multiplier applied.
func (r Request) layer(i int) dnn.Layer {
	l := r.Model.Layers[i]
	if r.Batch > 1 {
		l = l.WithBatch(r.Batch)
	}
	return l
}

// Points expands the request into the batch kernel's sweep points: one per
// layer of the batched model, in layer order, all sharing the request's
// accelerator and residency mode — the per-layer evaluations Run would make,
// as RunBatch input.
func (r Request) Points() []Point {
	pts := make([]Point, len(r.Model.Layers))
	for i := range pts {
		pts[i] = Point{Accel: r.Accel, Layer: r.layer(i), Mode: r.Mode}
	}
	return pts
}

// Run evaluates the request through the given layer runner (nil means the
// scalar kernel RunLayer wraps) and returns the model totals together with
// every layer's result, in the model's layer order, in ModelResult.Layers.
// Any deterministic runner yields the same totals, bit for bit, through Run
// and Totals. Callers that need observability or cancellation
// pass ObservedRunner or wrap a context check around a runner.
func (r Request) Run(run LayerRunner) (ModelResult, error) {
	return r.aggregate(run, true)
}

// Totals is Run without the per-layer results: each layer is evaluated into
// one reused slot and folded into the totals, so ModelResult.Layers stays
// nil. Every total is bit-identical to Run's.
func (r Request) Totals(run LayerRunner) (ModelResult, error) {
	return r.aggregate(run, false)
}

// aggregate folds every layer's result, in layer order, into the totals;
// with keep, each layer fills its own ModelResult.Layers slot, otherwise
// all share one, which the kernel refills in place. Each batched layer is
// built in its slot's Layer field and handed to the runner by pointer.
func (r Request) aggregate(run LayerRunner, keep bool) (ModelResult, error) {
	if err := r.Validate(); err != nil {
		return ModelResult{}, err
	}
	res := ModelResult{Model: r.Model.Name, Accel: r.Accel.Name(), Mode: r.Mode}
	var lr *LayerResult
	if keep {
		res.Layers = make([]LayerResult, len(r.Model.Layers))
	} else {
		lr = new(LayerResult)
	}
	for i := range r.Model.Layers {
		if keep {
			lr = &res.Layers[i]
		}
		lr.Layer = r.Model.Layers[i]
		if r.Batch > 1 {
			lr.Layer.Batch = r.Batch
		}
		repeat := lr.Layer.Repeat
		var err error
		if run == nil {
			err = runLayer(&r.Accel, &lr.Layer, r.Mode, obs.Nop(), lr)
		} else {
			err = run(r.Accel, &lr.Layer, r.Mode, lr)
		}
		if err != nil {
			return ModelResult{}, err
		}
		res.add(&lr.LayerOutcome, repeat)
	}
	return res, nil
}
