package sim

import (
	"math"
	"testing"

	"spacx/internal/dnn"
	"spacx/internal/obs"
)

// The no-op recorder must keep the analytical hot path free of
// instrumentation overhead; compare with an attached registry:
//
//	go test -bench BenchmarkRunLayer ./internal/sim
//
// The steady-state ~216 B/op against 0 allocs/op is slab carving, not a
// leak in the accounting: each call carves its flow slice (~192 B) and
// FlowSecs (~24 B) out of pooled slabs (internal/dataflow), so the bytes are
// real and amortized while the block allocation lands once per ~hundred
// calls and rounds to zero. A returned LayerResult retains its carving.
// Request.Totals' one reused slot instead refills its slices in place, so
// BenchmarkRequestTotals pays for the slot and its first carvings per call
// whatever the layer count. make bench-check guards both numbers (B/op via
// the byte allowance in internal/bench).
func BenchmarkRunLayerNop(b *testing.B) {
	acc := SPACXAccel()
	l := dnn.NewSameConv("conv", 56, 64, 64, 3, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunLayerObserved(acc, l, WholeInference, obs.Nop()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunLayerObserved(b *testing.B) {
	acc := SPACXAccel()
	l := dnn.NewSameConv("conv", 56, 64, 64, 3, 1)
	reg := obs.NewRegistry(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunLayerObserved(acc, l, WholeInference, reg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunModelNop(b *testing.B) {
	acc := SPACXAccel()
	m := dnn.AlexNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(acc, m, WholeInference); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRequestTotals is a serve miss: ResNet-50 at batch 4 folded into
// the model totals through one reused slot. BenchmarkRunModelNop keeps
// every layer's result instead.
func BenchmarkRequestTotals(b *testing.B) {
	req := Request{Accel: SPACXAccel(), Model: dnn.ResNet50(), Mode: WholeInference, Batch: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := req.Totals(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepBatchPoints is a realistic capacity study: every ResNet-50 layer
// under both residency modes across a GB-capacity ladder. Each (layer)
// cohort holds 16 points (2 modes x 8 capacities) that share one mapping.
func sweepBatchPoints() []Point {
	m := dnn.ResNet50()
	pts := make([]Point, 0, len(m.Layers)*16)
	for _, l := range m.Layers {
		for _, mode := range []Mode{LayerByLayer, WholeInference} {
			for gbKB := 512; gbKB <= 64*1024; gbKB *= 2 {
				acc := SPACXAccel()
				acc.Arch.GBBytes = gbKB * 1024
				pts = append(pts, Point{Accel: acc, Layer: l, Mode: mode})
			}
		}
	}
	return pts
}

// BenchmarkSweepBatch measures the batched structure-of-arrays kernel on the
// capacity-study sweep; BenchmarkSweepScalar is the same point set through
// the scalar kernel. The ratio is the cohort-hoisting win.
func BenchmarkSweepBatch(b *testing.B) {
	pts := sweepBatchPoints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBatch(pts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pts)), "points")
}

func BenchmarkSweepScalar(b *testing.B) {
	pts := sweepBatchPoints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pts {
			if _, err := RunLayer(p.Accel, p.Layer, p.Mode); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(pts)), "points")
}

// BenchmarkThermalStep is one sim.ThermalStepper.Step of the EXPERIMENTS.md
// diurnal recipe (AlexNet whole-inference on SPACX, feedback on, 10-s steps)
// per op: the load follows that recipe's day of 720 steps without its seeded
// jitter, and the stepper runs on through the days. The coupler, the power
// map and one exact RC update.
func BenchmarkThermalStep(b *testing.B) {
	acc := SPACXAccel()
	res, err := Run(acc, dnn.AlexNet(), WholeInference)
	if err != nil {
		b.Fatal(err)
	}
	st, err := NewThermalStepper(acc, res, DefaultThermalConfig())
	if err != nil {
		b.Fatal(err)
	}
	const day = 720
	load := make([]float64, day)
	for i := range load {
		load[i] = 0.55 + 0.40*math.Sin(2*math.Pi*float64(i)/day-math.Pi/2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Step(load[i%day], 10); err != nil {
			b.Fatal(err)
		}
	}
}
