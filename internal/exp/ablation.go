package exp

import (
	"spacx/internal/dnn"
	"spacx/internal/network"
	"spacx/internal/network/spacxnet"
	"spacx/internal/photonic"
	"spacx/internal/sim"
)

// AblationRow is one variant of the design-choice ablations DESIGN.md calls
// out: the full SPACX design, SPACX with broadcast disabled (every shared
// datum unicast per destination), and SPACX without bandwidth allocation.
type AblationRow struct {
	Model   string
	Variant string

	ExecSec  float64
	EnergyJ  float64
	ExecNorm float64 // normalized to the full SPACX design
	EnergyN  float64
}

// AblationBroadcast quantifies how much of SPACX's advantage comes from
// broadcast itself: the same photonic hardware and dataflow, with every
// broadcast emulated by unicasts.
func AblationBroadcast() ([]AblationRow, error) {
	full := sim.SPACXAccel()
	noBcast := sim.SPACXAccel()
	noBcast.Arch.Name = "SPACX-nobcast"
	noBcast.Arch.Net = network.NoBroadcast{Inner: noBcast.Arch.Net}
	noBA := sim.SPACXAccelNoBA()

	names := []string{"SPACX", "no-broadcast", "no-bandwidth-allocation"}
	accs := []sim.Accelerator{full, noBcast, noBA}
	models := dnn.Benchmarks()
	grid, err := runGrid("ablation", models, accs, sim.WholeInference)
	if err != nil {
		return nil, err
	}

	var rows []AblationRow
	for mi, m := range models {
		var baseT, baseE float64
		for ai, name := range names {
			r := grid[mi][ai]
			if ai == 0 {
				baseT, baseE = r.ExecSec, r.TotalEnergy
			}
			rows = append(rows, AblationRow{
				Model: m.Name, Variant: name,
				ExecSec: r.ExecSec, EnergyJ: r.TotalEnergy,
				ExecNorm: r.ExecSec / baseT, EnergyN: r.TotalEnergy / baseE,
			})
		}
	}
	return rows, nil
}

// GranularityTradeoffRow is one point of the deployment-choice study closing
// Section VIII-E1: the paper picks (e/f=8, k=16) over the power-optimal
// (16,16) "to achieve balanced improvement on both energy efficiency and
// execution time".
type GranularityTradeoffRow struct {
	GEF, GK  int
	ExecSec  float64
	EnergyJ  float64
	OverallW float64
}

// GranularityTradeoff runs ResNet-50 across the plotted granularity range
// and reports execution time, energy, and static network power per point.
// Each (gK, gEF) point is an independent whole-inference run, fanned out
// across the worker pool in row-major gK order.
func GranularityTradeoff() ([]GranularityTradeoffRow, error) {
	res := dnn.ResNet50()
	gs := []int{4, 8, 16, 32}
	return mapPoints("tradeoff", len(gs)*len(gs), func(i int) (GranularityTradeoffRow, error) {
		gk, gef := gs[i/len(gs)], gs[i%len(gs)]
		acc, err := sim.SPACXAccelCustom(32, 32, gef, gk, photonic.Moderate(), true)
		if err != nil {
			return GranularityTradeoffRow{}, err
		}
		r, err := sim.Request{Accel: acc, Model: res, Mode: sim.WholeInference}.Totals(nil)
		if err != nil {
			return GranularityTradeoffRow{}, err
		}
		cfg, err := spacxnet.New(32, 32, gef, gk, photonic.Moderate())
		if err != nil {
			return GranularityTradeoffRow{}, err
		}
		return GranularityTradeoffRow{
			GEF: gef, GK: gk,
			ExecSec:  r.ExecSec,
			EnergyJ:  r.TotalEnergy,
			OverallW: cfg.Power().OverallW(),
		}, nil
	})
}
