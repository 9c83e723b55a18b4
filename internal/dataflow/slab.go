package dataflow

import (
	"sync"

	"spacx/internal/network"
)

// Profiles — and the sim.LayerResults built from them, such as the ones
// sim.Request.Run keeps per layer — may be retained indefinitely by their
// callers, so a kept mapping's flow slice can never be recycled. It can,
// however, be batched: newFlows carves each 3-4 element slice out of a
// pooled slab block, turning one small garbage-collected allocation per
// mapping into one block allocation per ~hundred mappings. Carved memory is
// permanently owned by its Profile; the slab only ever advances, it never
// reuses what it handed out.
//
// The slab serves only results that callers keep (Map, sim.RunLayer,
// sim.Request.Run, sim.RunBatch). A caller that maps layer after layer into
// one Profile it owns — the one reused slot of sim.Request.Totals — passes
// its slices back through MapInto and MeasureFlowsInto, and flowsFor and
// floatsFor refill them in place; that slot carves only when a mapping
// outgrows it (a 4-flow WS mapping after 3-flow ones).
//
// newFloats is the same scheme for the per-flow transfer-time slices that
// MeasureFlows carves (sim.LayerResult.FlowSecs holds them): amortized,
// the two slabs are the entire steady-state byte cost of a kept layer
// evaluation — the ~216 B/op that benchmarks report against 0 allocs/op.
//
// Storing a mapping's flows inline instead would grow sim.LayerResult past
// what the batch kernel's byte gate allows (BenchmarkSweepBatch), and a
// per-call allocation in sim.RunLayer would break BenchmarkSweepScalar's
// allocation gate, so the slabs stay while the batch kernel does.

const (
	flowSlabCap  = 512
	floatSlabCap = 1024
)

var flowSlabs = sync.Pool{New: func() interface{} { return new(flowSlab) }}

type flowSlab struct{ buf []network.Flow }

// flowsFor returns n flows for a mapper to overwrite: dst itself when it
// has the capacity (a caller refilling a Profile it owns), otherwise a new
// carving.
func flowsFor(dst []network.Flow, n int) []network.Flow {
	if cap(dst) >= n {
		return dst[:n]
	}
	return newFlows(n)
}

// newFlows returns a slice of n zeroed flows carved from a pooled slab. The
// result is clipped to full capacity, so a caller appending to it cannot
// clobber a later carving.
func newFlows(n int) []network.Flow {
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
	return out
}

var floatSlabs = sync.Pool{New: func() interface{} { return new(floatSlab) }}

type floatSlab struct{ buf []float64 }

// floatsFor is flowsFor for MeasureFlowsInto's transfer times.
func floatsFor(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return newFloats(n)
}

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
