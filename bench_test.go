// Benchmarks: one per table and figure of the paper's evaluation (DESIGN.md
// experiment index). Each benchmark regenerates its artifact via the
// internal/exp drivers and reports the headline series as custom metrics, so
// `go test -bench=. -benchmem` reproduces the whole evaluation.
package spacx_test

import (
	"testing"

	"spacx/internal/exp"
	"spacx/internal/machine"
	"spacx/internal/sim"

	root "spacx"
)

func BenchmarkTable1Configurations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
	rows, _ := exp.Table1()
	b.ReportMetric(float64(rows[0].Wavelengths), "configA-wavelengths")
	b.ReportMetric(float64(rows[3].Wavelengths), "configD-wavelengths")
}

func BenchmarkTable2NetworkParameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := exp.Table2(); len(rows) != 6 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable3And4LaserPower(b *testing.B) {
	var rows []exp.Table3And4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.Table3And4()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].CrossChannelMw, "moderate-cross-mW")
	b.ReportMetric(rows[1].CrossChannelMw, "aggressive-cross-mW")
}

func BenchmarkFig13PerLayerTime(b *testing.B) {
	var rows []exp.LayerRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.Fig13And14()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Average SPACX/Simba per-layer exec ratio (paper: ~0.54 on average,
	// i.e. 46% reduction vs Simba).
	var sum float64
	var n int
	for _, r := range rows {
		if r.Accel == "SPACX" {
			sum += r.ExecNorm
			n++
		}
	}
	b.ReportMetric(sum/float64(n), "spacx/simba-exec-ratio")
	b.ReportMetric(float64(len(rows))/3, "layers")
}

func BenchmarkFig14PerLayerEnergy(b *testing.B) {
	var rows []exp.LayerRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.Fig13And14()
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	var n int
	for _, r := range rows {
		if r.Accel == "SPACX" {
			sum += r.EnergyNorm
			n++
		}
	}
	b.ReportMetric(sum/float64(n), "spacx/simba-energy-ratio")
}

func BenchmarkFig15Overall(b *testing.B) {
	var rows []exp.AccelRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.Fig15()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Model == "A.M." {
			switch r.Accel {
			case "SPACX":
				b.ReportMetric(r.ExecNorm, "am-spacx-exec")
				b.ReportMetric(r.EnergyNorm, "am-spacx-energy")
			case "POPSTAR":
				b.ReportMetric(r.ExecNorm, "am-popstar-exec")
				b.ReportMetric(r.EnergyNorm, "am-popstar-energy")
			}
		}
	}
}

// BenchmarkFig16Cold times Fig16 at spacx-report's default 20 000 packets:
// every op derives each model's load and runs all twelve event simulations,
// as a full report does. One worker keeps the allocation count
// deterministic.
func BenchmarkFig16Cold(b *testing.B) {
	exp.SetParallelism(1)
	defer exp.SetParallelism(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig16(20000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17Dataflows(b *testing.B) {
	var rows []exp.AccelRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.Fig17()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Model == "A.M." && r.Accel == "SPACX" {
			b.ReportMetric(r.ExecNorm, "am-spacx/ws-exec")
			b.ReportMetric(r.EnergyNorm, "am-spacx/ws-energy")
		}
	}
}

func BenchmarkFig18BandwidthAllocation(b *testing.B) {
	var rows []exp.AccelRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.Fig18()
		if err != nil {
			b.Fatal(err)
		}
	}
	var with, without float64
	for _, r := range rows {
		if r.Model == "A.M." {
			if r.Accel == "SPACX" {
				with = r.ExecNorm
			}
			if r.Accel == "SPACX-BA" {
				without = r.ExecNorm
			}
		}
	}
	b.ReportMetric(without/with-1, "exec-increase-without-ba")
}

func BenchmarkFig19PowerModerate(b *testing.B) {
	var pts []root.PowerPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = exp.Fig19()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.GK == 16 && p.GEF == 16 {
			b.ReportMetric(p.OverallW(), "overall-16-16-W")
		}
		if p.GK == 4 && p.GEF == 4 {
			b.ReportMetric(p.LaserW, "laser-4-4-W")
		}
	}
}

func BenchmarkFig20PowerAggressive(b *testing.B) {
	var pts []root.PowerPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = exp.Fig20()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.GK == 16 && p.GEF == 16 {
			b.ReportMetric(p.OverallW(), "overall-16-16-W")
		}
	}
}

func BenchmarkFig21EnergyBreakdown(b *testing.B) {
	var bb []exp.Fig21b
	var err error
	for i := 0; i < b.N; i++ {
		if _, err = exp.Fig21a(); err != nil {
			b.Fatal(err)
		}
		bb, err = exp.Fig21bBreakdown()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bb[0].TotalJ*1e3, "moderate-network-mJ")
	b.ReportMetric(bb[1].TotalJ*1e3, "aggressive-network-mJ")
}

func BenchmarkFig22Scalability(b *testing.B) {
	var rows []exp.Fig22Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.Fig22()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Accel == "SPACX" && r.M == 64 {
			b.ReportMetric(r.ExecNorm, "spacx-m64-exec-norm")
		}
	}
}

func BenchmarkAreaEstimate(b *testing.B) {
	var r exp.AreaReport
	var err error
	for i := 0; i < b.N; i++ {
		r, err = exp.Area()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.PeripheralShare, "transceiver-area-pct")
}

// BenchmarkSingleLayerSPACX measures the raw mapping+simulation cost of one
// layer — the library's hot path.
func BenchmarkSingleLayerSPACX(b *testing.B) {
	acc := root.SPACX()
	layer := root.ResNet50().Layers[2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunLayer(acc, layer, sim.WholeInference); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWholeInferenceSPACX measures a full ResNet-50 simulation.
func BenchmarkWholeInferenceSPACX(b *testing.B) {
	acc := root.SPACX()
	model := root.ResNet50()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := root.Run(acc, model, root.WholeInference); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation and extension benches (DESIGN.md section 5: design-choice
// ablations beyond the paper's own figures).

func BenchmarkAblationBroadcast(b *testing.B) {
	var rows []exp.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.AblationBroadcast()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Model == "ResNet-50" && r.Variant == "no-broadcast" {
			b.ReportMetric(r.ExecNorm, "resnet50-nobcast-exec-norm")
		}
	}
}

func BenchmarkGranularityTradeoff(b *testing.B) {
	var rows []exp.GranularityTradeoffRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.GranularityTradeoff()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.GEF == 8 && r.GK == 16 {
			b.ReportMetric(r.ExecSec*1e3, "chosen-exec-ms")
		}
	}
}

func BenchmarkAdaptiveGranularity(b *testing.B) {
	var rows []exp.AdaptiveRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.AdaptiveGranularity()
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	for _, r := range rows {
		sum += r.Speedup
	}
	b.ReportMetric(sum/float64(len(rows)), "mean-speedup")
}

// BenchmarkFunctionalMachine measures the value-level SPACX machine on the
// Figure 8 example layer.
func BenchmarkFunctionalMachine(b *testing.B) {
	cfg, err := root.NewNetworkConfig(8, 8, 8, 8, root.ModerateParams())
	if err != nil {
		b.Fatal(err)
	}
	mach, err := machine.NewSPACX(cfg)
	if err != nil {
		b.Fatal(err)
	}
	l := root.ResNet50().Layers[1] // 1x1 56x56 layer, scaled work
	small := l
	small.H, small.W, small.E, small.F = 8, 8, 8, 8
	small.C, small.K = 8, 8
	ifmap := machine.NewTensor3(small.C, small.H, small.W)
	w := machine.NewWeights(small.K, small.C, small.R, small.S)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mach.Run(small, ifmap, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchScaling(b *testing.B) {
	var rows []exp.BatchRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.BatchScaling()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Accel == "SPACX" && r.Batch == 64 {
			b.ReportMetric(r.ThroughputIPS, "spacx-batch64-inf/s")
		}
	}
}

func BenchmarkEngineAgreement(b *testing.B) {
	var rows []exp.EngineRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.EngineAgreement()
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	for _, r := range rows {
		sum += r.Ratio
	}
	b.ReportMetric(sum/float64(len(rows)), "mean-detailed/analytical")
}
