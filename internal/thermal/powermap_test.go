package thermal

import (
	"math"
	"testing"
)

func TestOperatingPointValidate(t *testing.T) {
	good := OperatingPoint{
		Utilization: 0.8, ComputeW: 6, GBFrac: 0.3,
		NetDynamicW: 2, NetGBFrac: 0.5,
		LaserW: 10, OnDieLaserFrac: 0.1,
		HeatingW: 2.3, HeatingGBFrac: 0.4,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected good point: %v", err)
	}
	bad := []func(*OperatingPoint){
		func(op *OperatingPoint) { op.Utilization = -0.1 },
		func(op *OperatingPoint) { op.ComputeW = -1 },
		func(op *OperatingPoint) { op.NetDynamicW = -1 },
		func(op *OperatingPoint) { op.LaserW = -1 },
		func(op *OperatingPoint) { op.HeatingW = -1 },
		func(op *OperatingPoint) { op.GBFrac = 1.5 },
		func(op *OperatingPoint) { op.NetGBFrac = -0.2 },
		func(op *OperatingPoint) { op.OnDieLaserFrac = 2 },
		func(op *OperatingPoint) { op.HeatingGBFrac = -1 },
	}
	for i, mutate := range bad {
		op := good
		mutate(&op)
		if err := op.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, op)
		}
	}
}

// The source vector must conserve power: sum of node sources == TotalW, with
// the activity share scaled by utilization and the splits honored.
func TestSourcesConservePower(t *testing.T) {
	n := testNetwork(t, 16)
	op := OperatingPoint{
		Utilization: 0.6, ComputeW: 6.5, GBFrac: 0.25,
		NetDynamicW: 2.1, NetGBFrac: 0.55,
		LaserW: 12, OnDieLaserFrac: 0.08,
		HeatingW: 2.4, HeatingGBFrac: 0.35,
	}
	src, err := n.Sources(nil, op)
	if err != nil {
		t.Fatalf("Sources: %v", err)
	}
	if len(src) != n.Nodes() {
		t.Fatalf("Sources returned %d entries for %d nodes", len(src), n.Nodes())
	}
	var sum float64
	for _, p := range src {
		if p < 0 {
			t.Fatalf("negative source %g", p)
		}
		sum += p
	}
	if want := op.TotalW(); math.Abs(sum-want) > 1e-9 {
		t.Errorf("sources sum %.9g W, TotalW %.9g W", sum, want)
	}
	if src[n.AmbientNode()] != 0 {
		t.Error("ambient node has a heat source")
	}
	// Laser share lands on the interposer.
	if want := op.LaserW * op.OnDieLaserFrac; math.Abs(src[n.InterposerNode()]-want) > 1e-12 {
		t.Errorf("interposer source %g, want laser share %g", src[n.InterposerNode()], want)
	}
	// Chiplet share is uniform.
	for i := 1; i < n.Chiplets(); i++ {
		if src[i] != src[0] {
			t.Errorf("chiplet %d source %g != chiplet 0 source %g", i, src[i], src[0])
		}
	}
	// Utilization scales the dynamic parts only.
	op2 := op
	op2.Utilization = 0
	src2, err := n.Sources(nil, op2)
	if err != nil {
		t.Fatalf("Sources: %v", err)
	}
	var idle float64
	for _, p := range src2 {
		idle += p
	}
	if want := op.LaserW*op.OnDieLaserFrac + op.HeatingW; math.Abs(idle-want) > 1e-9 {
		t.Errorf("idle sources sum %.9g W, want static %.9g W", idle, want)
	}
}

func TestSourcesRejectBadPoint(t *testing.T) {
	n := testNetwork(t, 16)
	if _, err := n.Sources(nil, OperatingPoint{Utilization: -1}); err == nil {
		t.Error("Sources accepted invalid operating point")
	}
}
