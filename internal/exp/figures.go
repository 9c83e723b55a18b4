package exp

import (
	"fmt"

	"spacx/internal/dataflow"
	"spacx/internal/dnn"
	"spacx/internal/network/spacxnet"
	"spacx/internal/obs"
	"spacx/internal/photonic"
	"spacx/internal/sim"
)

// LayerRow is one bar of Figures 13/14: a (layer, accelerator) pair with
// the stacked breakdown, normalized to the Simba bar of the same layer.
type LayerRow struct {
	Label string // L1..L33
	Layer string
	Accel string

	ComputeSec float64
	CommSec    float64
	ExecSec    float64
	ExecNorm   float64

	NetworkJ   float64
	OtherJ     float64
	EnergyJ    float64
	EnergyNorm float64
}

// Fig13And14 runs the per-layer experiment of Figures 13 and 14: every
// unique ResNet-50 and VGG-16 layer executed layer-by-layer (data initially
// in DRAM) on all three accelerators. The (layer, accelerator) grid is
// evaluated across the worker pool; the normalization fold below walks it in
// the sequential order.
func Fig13And14() ([]LayerRow, error) {
	accs := sim.EvalAccelerators()
	var layers []dnn.Layer
	for _, m := range []dnn.Model{dnn.ResNet50(), dnn.VGG16()} {
		layers = append(layers, m.Layers...)
	}
	results, err := mapPoints("fig13", len(layers)*len(accs), func(i int) (sim.LayerOutcome, error) {
		l, acc := layers[i/len(accs)], accs[i%len(accs)]
		r, err := layerCached(acc, l, sim.LayerByLayer)
		if err != nil {
			return sim.LayerOutcome{}, fmt.Errorf("exp: fig13 %s on %s: %w", l.Name, acc.Name(), err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	var rows []LayerRow
	for li, l := range layers {
		var baseExec, baseEnergy float64
		for ai, acc := range accs {
			r := results[li*len(accs)+ai]
			if ai == 0 {
				baseExec, baseEnergy = r.ExecSec, r.TotalEnergy
			}
			rows = append(rows, LayerRow{
				Label: fmt.Sprintf("L%d", li+1), Layer: l.Name, Accel: acc.Name(),
				ComputeSec: r.ComputeSec, CommSec: r.CommSec, ExecSec: r.ExecSec,
				ExecNorm: r.ExecSec / baseExec,
				NetworkJ: r.NetworkEnergy, OtherJ: r.ComputeEnergy, EnergyJ: r.TotalEnergy,
				EnergyNorm: r.TotalEnergy / baseEnergy,
			})
		}
	}
	return rows, nil
}

// Fig15 runs the whole-inference experiment (GB inter-layer reuse) for the
// four DNN models on the three accelerators, normalized to Simba, plus the
// arithmetic-mean rows.
func Fig15() ([]AccelRow, error) {
	models := dnn.Benchmarks()
	accs := sim.EvalAccelerators()
	grid, err := runGrid("fig15", models, accs, sim.WholeInference)
	if err != nil {
		return nil, err
	}
	var rows []AccelRow
	sums := map[string]*AccelRow{}
	order := []string{}
	for mi, m := range models {
		var baseExec, baseEnergy float64
		for ai, acc := range accs {
			r := grid[mi][ai]
			if ai == 0 {
				baseExec, baseEnergy = r.ExecSec, r.TotalEnergy
			}
			row := accelRow(m.Name, acc.Name(), r, baseExec, baseEnergy)
			rows = append(rows, row)
			s, ok := sums[row.Accel]
			if !ok {
				s = &AccelRow{Model: "A.M.", Accel: row.Accel}
				sums[row.Accel] = s
				order = append(order, row.Accel)
			}
			s.ExecNorm += row.ExecNorm / 4
			s.EnergyNorm += row.EnergyNorm / 4
			s.ExecSec += row.ExecSec
			s.EnergyJ += row.EnergyJ
		}
	}
	for _, a := range order {
		rows = append(rows, *sums[a])
	}
	return rows, nil
}

// Fig17 compares the three dataflows on the SPACX architecture
// (whole-inference), normalized to WS, with A.M. rows.
func Fig17() ([]AccelRow, error) {
	dfs := []dataflow.Dataflow{dataflow.WS{}, dataflow.OSEF{}, dataflow.SPACX{BandwidthAllocation: true}}
	accs := make([]sim.Accelerator, len(dfs))
	for i, df := range dfs {
		accs[i] = sim.SPACXArchWithDataflow(df)
	}
	models := dnn.Benchmarks()
	grid, err := runGrid("fig17", models, accs, sim.WholeInference)
	if err != nil {
		return nil, err
	}
	var rows []AccelRow
	sums := map[string]*AccelRow{}
	order := []string{}
	for mi, m := range models {
		var baseExec, baseEnergy float64
		for di, df := range dfs {
			r := grid[mi][di]
			if di == 0 {
				baseExec, baseEnergy = r.ExecSec, r.TotalEnergy
			}
			row := accelRow(m.Name, df.Name(), r, baseExec, baseEnergy)
			rows = append(rows, row)
			s, ok := sums[row.Accel]
			if !ok {
				s = &AccelRow{Model: "A.M.", Accel: row.Accel}
				sums[row.Accel] = s
				order = append(order, row.Accel)
			}
			s.ExecNorm += row.ExecNorm / 4
			s.EnergyNorm += row.EnergyNorm / 4
		}
	}
	for _, a := range order {
		rows = append(rows, *sums[a])
	}
	return rows, nil
}

// Fig18 compares SPACX with and without the bandwidth-allocation scheme
// (plus the Simba reference bar of the figure), normalized to Simba.
func Fig18() ([]AccelRow, error) {
	accs := []sim.Accelerator{sim.SimbaAccel(), sim.SPACXAccel(), sim.SPACXAccelNoBA()}
	names := []string{"Simba", "SPACX", "SPACX-BA"}
	models := dnn.Benchmarks()
	grid, err := runGrid("fig18", models, accs, sim.WholeInference)
	if err != nil {
		return nil, err
	}
	var rows []AccelRow
	sums := map[string]*AccelRow{}
	order := []string{}
	for mi, m := range models {
		var baseExec, baseEnergy float64
		for ai := range accs {
			r := grid[mi][ai]
			if ai == 0 {
				baseExec, baseEnergy = r.ExecSec, r.TotalEnergy
			}
			row := accelRow(m.Name, names[ai], r, baseExec, baseEnergy)
			rows = append(rows, row)
			s, ok := sums[row.Accel]
			if !ok {
				s = &AccelRow{Model: "A.M.", Accel: row.Accel}
				sums[row.Accel] = s
				order = append(order, row.Accel)
			}
			s.ExecNorm += row.ExecNorm / 4
			s.EnergyNorm += row.EnergyNorm / 4
		}
	}
	for _, a := range order {
		rows = append(rows, *sums[a])
	}
	return rows, nil
}

// Fig19 and Fig20 return the (gK, gEF) power surfaces.
func Fig19() ([]spacxnet.PowerPoint, error) {
	return PowerSweep(32, 32, photonic.Moderate())
}

// Fig20 is the aggressive-parameter surface.
func Fig20() ([]spacxnet.PowerPoint, error) {
	return PowerSweep(32, 32, photonic.Aggressive())
}

// PowerSweep is the Figures 19/20 broadcast-granularity power sweep at
// arbitrary scale: the (gK, gEF) grid is evaluated across the worker pool in
// the row-major order of spacxnet.PowerSurface, and per-point progress is
// reported in that order through the package recorder (spacx-report's -v
// and -metrics for fig19 and fig20).
func PowerSweep(m, n int, p photonic.Params) ([]spacxnet.PowerPoint, error) {
	if m <= 0 || n <= 0 {
		return nil, fmt.Errorf("exp: power sweep needs positive M, N; got %d, %d", m, n)
	}
	grid := spacxnet.GranularityGrid(m, n)
	recorder.Logger().Info("power sweep", "m", m, "n", n, "params", p.Name, "points", len(grid))
	pts, err := mapPoints("power", len(grid), func(i int) (spacxnet.PowerPoint, error) {
		gk, gef := grid[i][0], grid[i][1]
		c, err := spacxnet.New(m, n, gef, gk, p)
		if err != nil {
			return spacxnet.PowerPoint{}, err
		}
		return spacxnet.PowerPoint{GK: gk, GEF: gef, PowerBreakdown: c.Power()}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, pt := range pts {
		recorder.Count("spacx_exp_points_total", 1, obs.Label{Key: "sweep", Value: "power-point"})
		recorder.Logger().Debug("power point",
			"gk", pt.GK, "gef", pt.GEF, "overallW", pt.OverallW())
	}
	return pts, nil
}
