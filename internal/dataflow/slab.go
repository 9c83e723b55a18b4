package dataflow

import (
	"sync"

	"spacx/internal/network"
)

// Profiles — and the sim.LayerResults built from them, such as the ones
// sim.Request.Run keeps per layer — may be retained indefinitely by their
// callers, so a mapper's per-layer flow slice can never be recycled. It
// can, however, be batched: newFlows carves each 3-4 element slice out of a
// pooled slab block, turning one small garbage-collected allocation per Map
// call into one block allocation per ~hundred calls. Carved memory is
// permanently owned by its Profile; the slab only ever advances, it never
// reuses what it handed out. A caller that drops the Profile (the one
// reused slot of sim.Request.Totals) leaves its carving as garbage, and a
// block is collected once none of its carvings is referenced.
//
// newFloats is the same scheme for the per-flow transfer-time slices that
// MeasureFlows carves (sim.LayerResult.FlowSecs holds them): amortized,
// the two slabs are the entire steady-state byte cost of a layer evaluation
// — the ~216 B/op that benchmarks report against 0 allocs/op.

const (
	flowSlabCap  = 512
	floatSlabCap = 1024
)

var flowSlabs = sync.Pool{New: func() interface{} { return new(flowSlab) }}

type flowSlab struct{ buf []network.Flow }

// newFlows copies flows into a slice carved from a pooled slab. The result
// is clipped to full capacity, so a caller appending to it cannot clobber a
// later carving.
func newFlows(flows ...network.Flow) []network.Flow {
	n := len(flows)
	if n == 0 {
		return nil
	}
	s := flowSlabs.Get().(*flowSlab)
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]network.Flow, 0, flowSlabCap)
	}
	lo := len(s.buf)
	out := s.buf[lo : lo+n : lo+n]
	s.buf = s.buf[:lo+n]
	flowSlabs.Put(s)
	copy(out, flows)
	return out
}

var floatSlabs = sync.Pool{New: func() interface{} { return new(floatSlab) }}

type floatSlab struct{ buf []float64 }

// newFloats returns a zeroed slice of length n carved from a pooled slab,
// clipped to full capacity.
func newFloats(n int) []float64 {
	if n == 0 {
		return nil
	}
	if n > floatSlabCap {
		return make([]float64, n)
	}
	s := floatSlabs.Get().(*floatSlab)
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]float64, 0, floatSlabCap)
	}
	lo := len(s.buf)
	out := s.buf[lo : lo+n : lo+n]
	s.buf = s.buf[:lo+n]
	floatSlabs.Put(s)
	return out
}
