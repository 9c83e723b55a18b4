package sim

import (
	"fmt"

	"spacx/internal/dnn"
	"spacx/internal/network"
)

// Request bundles the parameters of one simulation query — accelerator,
// model, residency mode, and batch size — and its Run method is the one
// model aggregation every caller goes through. The batch multiplier is
// applied to a copy of the model, so a Request never mutates the layer
// definitions it was built from.
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
// RunLayer) and aggregates the layer results in the model's layer order, so
// any deterministic runner — including a memoized one — yields results
// bit-identical to Run. Callers that need observability or cancellation
// wrap RunLayerObserved or a context check in their runner.
func (r Request) Run(run LayerRunner) (ModelResult, error) {
	if err := r.Validate(); err != nil {
		return ModelResult{}, err
	}
	if run == nil {
		run = RunLayer
	}
	m := r.batched()
	res := ModelResult{Model: m.Name, Accel: r.Accel.Name(), Mode: r.Mode}
	res.Layers = make([]LayerResult, 0, len(m.Layers))
	for _, l := range m.Layers {
		lr, err := run(r.Accel, l, r.Mode)
		if err != nil {
			return ModelResult{}, err
		}
		res.Layers = append(res.Layers, lr)
		rep := float64(l.Repeat)
		res.ExecSec += lr.ExecSec * rep
		res.ComputeSec += lr.ComputeSec * rep
		res.CommSec += lr.CommSec * rep
		res.ComputeEnergy += lr.ComputeEnergy * rep
		res.NetworkEnergy += lr.NetworkEnergy * rep
		res.TotalEnergy += lr.TotalEnergy * rep
		res.NetDynamic = res.NetDynamic.Add(network.EnergyParts{
			EO:         lr.NetDynamic.EO * rep,
			OE:         lr.NetDynamic.OE * rep,
			Electrical: lr.NetDynamic.Electrical * rep,
		})
		res.NetStaticJ = network.StaticParts{
			Laser:   res.NetStaticJ.Laser + lr.NetStaticJ.Laser*rep,
			Heating: res.NetStaticJ.Heating + lr.NetStaticJ.Heating*rep,
		}
	}
	return res, nil
}
