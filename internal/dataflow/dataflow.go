// Package dataflow implements the three dataflows of the evaluation
// (Section IV and Figure 17): the broadcast-enabled output-stationary SPACX
// dataflow, the weight-stationary WS dataflow of Simba [13], and the
// output-stationary OS(e/f) dataflow of ShiDianNao [36]. A dataflow maps a
// DNN layer onto an accelerator and yields a Profile: the spatial
// utilization, the serial compute work per PE, the network flows (with their
// broadcast structure), the memory-hierarchy access counts, and the optical
// reconfiguration epochs.
package dataflow

import (
	"fmt"

	"spacx/internal/dnn"
	"spacx/internal/network"
)

// Data sizes (Section VII-C): 8-bit weights and input features, 24-bit
// partial sums.
const (
	WeightBytes = 1
	IfmapBytes  = 1
	OutputBytes = 1 // final output features, post-accumulation
	PsumBytes   = 3
)

// Arch describes the accelerator a dataflow maps onto.
type Arch struct {
	Name string

	M int // chiplets
	N int // PEs per chiplet

	VectorWidth int     // MACs per PE per cycle (along the c dimension)
	ClockHz     float64 // PE clock

	PEBufBytes int // per-PE buffer (4 kB SPACX, 43 kB Simba/POPSTAR)
	GBBytes    int // global buffer (2 MB)

	// Broadcast granularities for the SPACX dataflow (ignored by WS and
	// OS(e/f)): GEF chiplets per cross-chiplet broadcast group, GK PEs per
	// single-chiplet broadcast group.
	GEF, GK int

	Net network.Model
}

// Validate checks the architecture parameters.
func (a *Arch) Validate() error {
	switch {
	case a.M <= 0 || a.N <= 0:
		return fmt.Errorf("dataflow: arch %q M=%d N=%d must be positive", a.Name, a.M, a.N)
	case a.VectorWidth <= 0:
		return fmt.Errorf("dataflow: arch %q vector width must be positive", a.Name)
	case a.ClockHz <= 0:
		return fmt.Errorf("dataflow: arch %q clock must be positive", a.Name)
	case a.PEBufBytes <= 0 || a.GBBytes <= 0:
		return fmt.Errorf("dataflow: arch %q buffer sizes must be positive", a.Name)
	case a.Net == nil:
		return fmt.Errorf("dataflow: arch %q has no network model", a.Name)
	}
	if a.GEF != 0 && (a.GEF < 0 || a.M%a.GEF != 0) {
		return fmt.Errorf("dataflow: arch %q GEF=%d must divide M=%d", a.Name, a.GEF, a.M)
	}
	if a.GK != 0 && (a.GK < 0 || a.N%a.GK != 0) {
		return fmt.Errorf("dataflow: arch %q GK=%d must divide N=%d", a.Name, a.GK, a.N)
	}
	return nil
}

// TotalPEs returns M*N.
func (a *Arch) TotalPEs() int { return a.M * a.N }

// Profile is the result of mapping one layer onto one architecture.
type Profile struct {
	Layer dnn.Layer
	Arch  string

	// Spatial utilization.
	ActiveChiplets int
	ActivePEs      int

	// VectorSteps is the serial vector-MAC issue count of the critical-path
	// PE; compute time = VectorSteps / clock.
	VectorSteps int64

	// Flows between the GB and the PEs (and PE-to-PE psum reduction for
	// WS). DRAM traffic is added by the simulator per its residency mode.
	Flows []network.Flow

	// Memory-hierarchy access counts in bytes.
	PEBufReadBytes  int64
	PEBufWriteBytes int64
	GBReadBytes     int64
	GBWriteBytes    int64

	// RetuneEpochs counts optical-splitter reconfigurations (500 ps each,
	// SPACX only).
	RetuneEpochs int64
}

// MACs returns the layer's total MAC count (single instance).
func (p *Profile) MACs() int64 { return p.Layer.MACs() }

// Utilization is achieved MACs per peak MAC-slot over the compute time.
func (p *Profile) Utilization(a Arch) float64 {
	peak := float64(a.TotalPEs()) * float64(a.VectorWidth) * float64(p.VectorSteps)
	if peak == 0 {
		return 0
	}
	return float64(p.MACs()) / peak
}

// Dataflow maps layers onto architectures.
type Dataflow interface {
	Name() string
	Map(l dnn.Layer, a Arch) (Profile, error)
}

// MapInto maps l onto a as df.Map does, but into the caller's p: on success
// it overwrites every field of p, on error it leaves p untouched. The flows
// go into p.Flows when that slice has the capacity, so p.Flows must not be
// shared with a Profile someone else keeps. A caller that maps layer after
// layer into one Profile (sim.Request.Totals' slot) carves no flow slice
// after the first. The three built-in dataflows are dispatched statically:
// pointers passed through an interface method call escape to the heap.
// Any other dataflow goes through its Map.
func MapInto(df Dataflow, l *dnn.Layer, a *Arch, p *Profile) error {
	switch d := df.(type) {
	case SPACX:
		return d.mapInto(l, a, p)
	case WS:
		return d.mapInto(l, a, p)
	case OSEF:
		return d.mapInto(l, a, p)
	}
	q, err := df.Map(*l, *a)
	if err == nil {
		*p = q
	}
	return err
}

// ceilDiv is integer ceiling division.
func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// channelVectorOps is the serial vector-op count to cover C input channels
// with the architecture's vector width.
func channelVectorOps(c, vectorWidth int) int64 {
	return ceilDiv(int64(c), int64(vectorWidth))
}

// bufShare splits the PE buffer between weights, ifmaps, and psums; the
// paper's PEs have "separate buffers for input features, weights, and psums"
// (Figure 7) — modelled as fixed fractions of the stated capacity. The
// SPACX mapper plans residency adaptively instead (the execution controller
// configures the split offline per layer); the WS and OS(e/f) baselines use
// this fixed split.
type bufShare struct {
	weight, ifmap, psum int
}

func splitBuffer(total int) bufShare {
	return bufShare{
		weight: total * 2 / 5,
		ifmap:  total * 2 / 5,
		psum:   total / 5,
	}
}

// Residency floors used by the adaptive SPACX planner: the minimum psum
// scratch and the minimum streaming FIFO for a non-resident operand.
const (
	psumMin = 256
	fifoMin = 256
)
