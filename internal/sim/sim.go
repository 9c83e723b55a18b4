// Package sim is the analytical performance and energy simulator of
// Section VII-A — the role MAESTRO (extended with the hierarchical network
// model) plays in the paper. It combines a dataflow mapping's compute
// schedule and network flows with an interconnect model and the memory
// energy models, under the paper's assumptions: execution time is
// computation time plus communication time, with communication maximally
// overlapped by computation; splitter retuning costs 500 ps per epoch.
package sim

import (
	"fmt"
	"time"

	"spacx/internal/dataflow"
	"spacx/internal/dnn"
	"spacx/internal/energy"
	"spacx/internal/network"
	"spacx/internal/obs"
	"spacx/internal/photonic"
)

// Mode selects data residency (Section VII-D).
type Mode int

const (
	// LayerByLayer executes each layer separately with all data initially
	// in off-chip DRAM (the Figure 13/14 setup).
	LayerByLayer Mode = iota
	// WholeInference exploits inter-layer data reuse in the GB: a layer's
	// ofmap stays on-package for the next layer when it fits (the Figure
	// 15+ setup). Weights always stream from DRAM.
	WholeInference
)

func (m Mode) String() string {
	if m == LayerByLayer {
		return "layer-by-layer"
	}
	return "whole-inference"
}

// Accelerator pairs an architecture with its dataflow.
type Accelerator struct {
	Arch dataflow.Arch
	Flow dataflow.Dataflow
}

// Name returns the architecture name.
func (a Accelerator) Name() string { return a.Arch.Name }

// LayerResult holds one layer's simulation outcome (single instance; the
// Repeat multiplier is applied at aggregation): the layer, its mapping, and
// the scalar outcome.
type LayerResult struct {
	Layer   dnn.Layer
	Profile dataflow.Profile

	LayerOutcome

	// FlowSecs[i] is the isolated network transfer time of Profile.Flows[i]
	// under the accelerator's own network model (net.TransferTime); the
	// trace exporter uses it to draw per-flow spans.
	FlowSecs []float64
}

// LayerOutcome is the scalar part of a LayerResult — times, energies and
// DRAM traffic, without the layer or its mapping. It is everything the
// model totals are folded from, and all the internal/exp layer memo keeps.
type LayerOutcome struct {
	// Time in seconds.
	ComputeSec float64 // serial vector-MAC schedule
	InputSec   float64 // GB->PE delivery (overlappable)
	OutputSec  float64 // PE->GB drain plus psum relays (overlappable)
	DRAMSec    float64 // off-chip transfers (overlappable)
	ExecSec    float64 // max of the above plus serial overheads
	CommSec    float64 // ExecSec - ComputeSec: the exposed communication

	// Energy in joules.
	ComputeEnergy float64 // MACs + buffers + GB + DRAM ("Other" in Fig 14)
	NetDynamic    network.EnergyParts
	NetStaticJ    network.StaticParts // laser/heating integrated over ExecSec
	NetworkEnergy float64
	TotalEnergy   float64

	DRAMBytes int64
}

// ModelResult aggregates a full DNN (repeats included).
type ModelResult struct {
	Model string
	Accel string
	Mode  Mode

	// Layers holds every layer's result in model order. Request.Run fills
	// it; Request.Totals leaves it nil.
	Layers []LayerResult

	ExecSec       float64
	ComputeSec    float64
	CommSec       float64
	ComputeEnergy float64
	NetworkEnergy float64
	TotalEnergy   float64
	NetDynamic    network.EnergyParts
	NetStaticJ    network.StaticParts
	DRAMBytes     int64
}

// add folds one layer instance's outcome, times its repeat count, into the
// totals. Request.Run and Request.Totals both fold through it, so the
// totals arithmetic exists once.
func (res *ModelResult) add(o *LayerOutcome, repeat int) {
	rep := float64(repeat)
	res.ExecSec += o.ExecSec * rep
	res.ComputeSec += o.ComputeSec * rep
	res.CommSec += o.CommSec * rep
	res.ComputeEnergy += o.ComputeEnergy * rep
	res.NetworkEnergy += o.NetworkEnergy * rep
	res.TotalEnergy += o.TotalEnergy * rep
	res.NetDynamic = res.NetDynamic.Add(network.EnergyParts{
		EO:         o.NetDynamic.EO * rep,
		OE:         o.NetDynamic.OE * rep,
		Electrical: o.NetDynamic.Electrical * rep,
	})
	res.NetStaticJ = network.StaticParts{
		Laser:   res.NetStaticJ.Laser + o.NetStaticJ.Laser*rep,
		Heating: res.NetStaticJ.Heating + o.NetStaticJ.Heating*rep,
	}
	res.DRAMBytes += o.DRAMBytes * int64(repeat)
}

// RunLayer simulates one layer instance on the accelerator.
func RunLayer(acc Accelerator, l dnn.Layer, mode Mode) (LayerResult, error) {
	return RunLayerObserved(acc, l, mode, obs.Nop())
}

// RunLayerObserved is RunLayer with observability: mapping time, flow
// bytes/counts by class and direction, retune epochs, DRAM traffic, and
// overlap/stall accounting flow into rec. With the no-op recorder every
// instrumentation block is skipped, keeping the hot path unchanged.
func RunLayerObserved(acc Accelerator, l dnn.Layer, mode Mode, rec obs.Recorder) (LayerResult, error) {
	var r LayerResult
	err := runLayer(acc, l, mode, rec, &r)
	return r, err
}

// ObservedRunner is the LayerRunner that evaluates every layer as
// RunLayerObserved does, recording into rec.
func ObservedRunner(rec obs.Recorder) LayerRunner {
	return func(acc Accelerator, l dnn.Layer, mode Mode, r *LayerResult) error {
		return runLayer(acc, l, mode, rec, r)
	}
}

// runLayerNop is the default LayerRunner: the unobserved scalar kernel.
func runLayerNop(acc Accelerator, l dnn.Layer, mode Mode, r *LayerResult) error {
	return runLayer(acc, l, mode, obs.Nop(), r)
}

// runLayer is the scalar layer kernel. It overwrites every field of r, so a
// caller may reuse one slot across layers; on error r is left untouched.
func runLayer(acc Accelerator, l dnn.Layer, mode Mode, rec obs.Recorder, r *LayerResult) error {
	enabled := rec.Enabled()
	var mapStart time.Time
	if enabled {
		mapStart = time.Now()
	}
	p, err := acc.Flow.Map(l, acc.Arch)
	if err != nil {
		return fmt.Errorf("sim: mapping %s on %s: %w", l.Name, acc.Name(), err)
	}
	if enabled {
		rec.Observe("spacx_sim_layer_mapping_seconds", time.Since(mapStart).Seconds())
		dataflow.RecordProfile(rec, p, acc.Arch)
	}
	net := acc.Arch.Net

	r.Layer, r.Profile = l, p
	r.ComputeSec = float64(p.VectorSteps) / acc.Arch.ClockHz

	// Fold flows into the overlappable pools. The pooling arithmetic lives
	// in dataflow.MeasureFlows, shared with the batch kernel's cohort
	// prelude so the scalar and batched paths cannot drift apart.
	fc := dataflow.MeasureFlows(net, p.Flows)
	r.InputSec, r.OutputSec, r.NetDynamic = fc.InputSec, fc.OutputSec, fc.Dynamic
	r.FlowSecs = fc.Times
	if enabled {
		for i, f := range p.Flows {
			cls := obs.Label{Key: "class", Value: f.Class.String()}
			dir := obs.Label{Key: "dir", Value: dataflow.DirLabel(f.Dir)}
			rec.Count("spacx_sim_flow_bytes_total", float64(f.Normalize().UniqueBytes), cls, dir)
			rec.Count("spacx_sim_flows_total", 1, cls, dir)
			rec.Count("spacx_sim_flow_transfer_seconds_total", r.FlowSecs[i], cls, dir)
		}
	}

	// DRAM traffic per residency mode.
	r.DRAMBytes = dramBytes(l, acc.Arch, mode)
	r.DRAMSec = float64(r.DRAMBytes) / energy.DRAMBandwidthBytesPerSec

	// Serial overheads: optical retuning and first/last packet flight.
	overhead := float64(p.RetuneEpochs) * photonic.SplitterTuneDelaySeconds
	if len(p.Flows) > 0 {
		overhead += 2 * net.PacketLatency(p.Flows[0])
	}

	exec := r.ComputeSec
	for _, t := range []float64{r.InputSec, r.OutputSec, r.DRAMSec} {
		if t > exec {
			exec = t
		}
	}
	r.ExecSec = exec + overhead
	r.CommSec = r.ExecSec - r.ComputeSec

	if enabled {
		rec.Count("spacx_sim_layers_total", 1)
		rec.Count("spacx_sim_retune_epochs_total", float64(p.RetuneEpochs))
		rec.Count("spacx_sim_dram_bytes_total", float64(r.DRAMBytes))
		rec.Count("spacx_sim_pool_seconds_total", r.ComputeSec, obs.Label{Key: "pool", Value: "compute"})
		rec.Count("spacx_sim_pool_seconds_total", r.InputSec, obs.Label{Key: "pool", Value: "input"})
		rec.Count("spacx_sim_pool_seconds_total", r.OutputSec, obs.Label{Key: "pool", Value: "output"})
		rec.Count("spacx_sim_pool_seconds_total", r.DRAMSec, obs.Label{Key: "pool", Value: "dram"})
		rec.Count("spacx_sim_pool_seconds_total", overhead, obs.Label{Key: "pool", Value: "overhead"})
		rec.Count("spacx_sim_exec_seconds_total", r.ExecSec)
		// Overlap/stall accounting: exposed is communication that extended
		// the critical path beyond compute; overlapped is the remaining
		// pool time hidden under it (the paper's maximal-overlap claim).
		exposed := exec - r.ComputeSec
		rec.Count("spacx_sim_exposed_comm_seconds_total", exposed)
		rec.Count("spacx_sim_overlapped_comm_seconds_total", r.InputSec+r.OutputSec+r.DRAMSec-exposed)
		rec.Observe("spacx_sim_layer_exec_seconds", r.ExecSec)
	}

	// Energy.
	comp := energy.Compute{
		MACs:        p.MACs(),
		PEBufReads:  p.PEBufReadBytes,
		PEBufWrites: p.PEBufWriteBytes,
		PEBufBytes:  acc.Arch.PEBufBytes,
		GBReads:     p.GBReadBytes,
		GBWrites:    p.GBWriteBytes,
		GBBytes:     acc.Arch.GBBytes,
		DRAMBytes:   r.DRAMBytes,
	}
	r.ComputeEnergy = comp.Total()
	sp := net.StaticPower()
	r.NetStaticJ = network.StaticParts{
		Laser:   sp.Laser * r.ExecSec,
		Heating: sp.Heating * r.ExecSec,
	}
	r.NetworkEnergy = r.NetDynamic.Total() + r.NetStaticJ.Total()
	r.TotalEnergy = r.ComputeEnergy + r.NetworkEnergy
	return nil
}

// dramBytes computes the off-chip traffic of one layer instance.
func dramBytes(l dnn.Layer, a dataflow.Arch, mode Mode) int64 {
	weights := l.WeightCount() * dataflow.WeightBytes
	ifmaps := l.IfmapCount() * dataflow.IfmapBytes
	ofmaps := l.OfmapCount() * dataflow.OutputBytes
	switch mode {
	case LayerByLayer:
		return weights + ifmaps + ofmaps
	case WholeInference:
		b := weights
		if ifmaps > int64(a.GBBytes) {
			b += ifmaps // previous ofmap spilled
		}
		if ofmaps > int64(a.GBBytes) {
			b += ofmaps
		}
		return b
	}
	return 0
}

// Run simulates a full model (all layer instances).
func Run(acc Accelerator, m dnn.Model, mode Mode) (ModelResult, error) {
	return Request{Accel: acc, Model: m, Mode: mode}.Run(nil)
}

// LayerRunner evaluates one layer instance into the caller's r, overwriting
// every field on success. Request.Run and Request.Totals thread a custom
// runner through the model aggregation so memoizing engines (internal/exp)
// can substitute cached layer evaluations without duplicating — and risking
// drift from — the aggregation arithmetic.
type LayerRunner func(acc Accelerator, l dnn.Layer, mode Mode, r *LayerResult) error
