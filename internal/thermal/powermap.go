package thermal

import "fmt"

// OperatingPoint is one electrical operating point of the accelerator,
// expressed as full-load powers plus the instantaneous utilization that
// scales the activity-proportional parts. The sim layer derives the powers
// from a static simulation result (average compute power over a model's
// execution, the network's dynamic energy rate, its static laser and heater
// draw); the thermal loop then varies Utilization and HeatingW step by step.
type OperatingPoint struct {
	// Utilization scales the activity-proportional powers; 0..1 (values
	// above 1 are allowed and model oversubscription, but the feedback
	// throttle keeps achieved utilization at or below 1).
	Utilization float64

	// ComputeW is the full-load compute + SRAM + DRAM-interface power,
	// dissipated on the dies (PE share on chiplets, GB share on the GB die).
	ComputeW float64
	// GBFrac is the fraction of ComputeW dissipated on the GB die (global
	// buffer accesses, DRAM PHY); the remainder spreads uniformly over the
	// chiplet tiles.
	GBFrac float64

	// NetDynamicW is the full-load network dynamic power (E/O + O/E + any
	// electrical traversal), split between the GB transceiver array and the
	// per-PE receivers/modulators like ComputeW via NetGBFrac.
	NetDynamicW float64
	NetGBFrac   float64

	// LaserW is the always-on laser wall-plug power. Most of it is burned in
	// the off-package source; only OnDieLaserFrac of it (coupler loss,
	// absorbed light) heats the interposer.
	LaserW         float64
	OnDieLaserFrac float64

	// HeatingW is the always-on ring-heater power: the static interface
	// heater draw plus whatever extra tuning power the feedback loop is
	// currently commanding. It is dissipated where the rings are — spread
	// over the chiplet tiles and the GB transceiver bank via HeatingGBFrac.
	HeatingW      float64
	HeatingGBFrac float64
}

// Validate rejects non-physical operating points.
func (op OperatingPoint) Validate() error {
	if op.Utilization < 0 {
		return fmt.Errorf("thermal: negative utilization %g", op.Utilization)
	}
	if op.ComputeW < 0 || op.NetDynamicW < 0 || op.LaserW < 0 || op.HeatingW < 0 {
		return fmt.Errorf("thermal: negative power in operating point %+v", op)
	}
	for _, f := range []float64{op.GBFrac, op.NetGBFrac, op.OnDieLaserFrac, op.HeatingGBFrac} {
		if f < 0 || f > 1 {
			return fmt.Errorf("thermal: fraction out of [0,1] in operating point %+v", op)
		}
	}
	return nil
}

// TotalW returns the package heat of the operating point: utilization-scaled
// dynamic power plus the always-on laser share and heater power.
func (op OperatingPoint) TotalW() float64 {
	return op.Utilization*(op.ComputeW+op.NetDynamicW) +
		op.LaserW*op.OnDieLaserFrac + op.HeatingW
}

// Sources renders the operating point as the per-node heat vector of the
// network: activity-proportional power scaled by utilization and split
// between the chiplet tiles (uniformly) and the GB die, the on-die laser
// share deposited on the interposer (the waveguides live there), and the
// heater power split chiplets/GB. The vector is indexed in the network's
// node order. It is written into dst when dst has room for every node, and
// into a new slice otherwise, so a caller stepping the network passes the
// previous vector back and allocates once.
func (n *Network) Sources(dst []float64, op OperatingPoint) ([]float64, error) {
	if err := op.Validate(); err != nil {
		return nil, err
	}
	src := dst[:0]
	if cap(src) < len(n.temps) {
		src = make([]float64, len(n.temps))
	}
	src = src[:len(n.temps)]
	u := op.Utilization

	chipletsW := u*(op.ComputeW*(1-op.GBFrac)+op.NetDynamicW*(1-op.NetGBFrac)) +
		op.HeatingW*(1-op.HeatingGBFrac)
	gbW := u*(op.ComputeW*op.GBFrac+op.NetDynamicW*op.NetGBFrac) +
		op.HeatingW*op.HeatingGBFrac

	per := chipletsW / float64(n.m)
	for i := 0; i < n.m; i++ {
		src[i] = per
	}
	src[n.gb] = gbW
	src[n.interposer] = op.LaserW * op.OnDieLaserFrac
	src[n.ambient] = 0
	return src, nil
}
