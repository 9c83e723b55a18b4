package dataflow

import "spacx/internal/network"

// FlowCost is the folded network cost of a mapped profile's flows: the
// overlappable input and output pool times, the dynamic link energy, and the
// per-flow isolated transfer times. It is everything about a profile's flow
// geometry that does not depend on the residency mode or the global-buffer
// capacity — which is what lets the batched kernel compute it once per
// mapping cohort and reuse it across every point of the cohort.
type FlowCost struct {
	InputSec  float64
	OutputSec float64
	Dynamic   network.EnergyParts

	// Times[i] is flows[i]'s isolated transfer time. Like a mapper's flow
	// slice it is either the caller's own slice, refilled in place, or a
	// carving from a pooled slab that the caller then owns (a
	// sim.LayerResult holds it as FlowSecs for as long as the result is
	// kept).
	Times []float64
}

// MeasureFlows folds flows into the simulator's overlappable pools under
// net. On a broadcast-capable photonic network the input classes ride
// orthogonal wavelength groups (max); on a shared-medium network they
// serialize (sum). Output flows (PE->GB drains and PE->PE psum relays)
// always serialize. It is the single source of truth for this arithmetic:
// the scalar layer kernel and the batch kernel's cohort prelude both call
// it, so the two paths cannot drift apart.
func MeasureFlows(net network.Model, flows []network.Flow) FlowCost {
	var c FlowCost
	MeasureFlowsInto(&c, net, flows)
	return c
}

// MeasureFlowsInto is MeasureFlows into the caller's c: it overwrites every
// field, and writes the times into c.Times when that slice has the
// capacity, so c.Times must not be shared with a result someone else keeps.
func MeasureFlowsInto(c *FlowCost, net network.Model, flows []network.Flow) {
	times := floatsFor(c.Times, len(flows))
	var in, out float64
	var dyn network.EnergyParts
	caps := net.Caps()
	orthogonal := caps.CrossChipletBroadcast || caps.SingleChipletBroadcast
	for i, f := range flows {
		t := net.TransferTime(f)
		times[i] = t
		switch f.Dir {
		case network.GBToPE:
			if orthogonal {
				if t > in {
					in = t
				}
			} else {
				in += t
			}
		case network.PEToGB, network.PEToPE:
			out += t
		}
		dyn = dyn.Add(net.DynamicEnergy(f))
	}
	*c = FlowCost{InputSec: in, OutputSec: out, Dynamic: dyn, Times: times}
}
