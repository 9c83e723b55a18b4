package exp

import (
	"spacx/internal/dnn"
	"spacx/internal/photonic"
	"spacx/internal/sim"
)

// Fig21aRow is one bar of Figure 21(a): total energy breakdown of an
// accelerator variant (moderate/aggressive photonics) for one model,
// normalized to Simba.
type Fig21aRow struct {
	Model      string
	Accel      string // "Simba", "POPSTAR (moderate)", "SPACX (aggressive)", ...
	NetworkJ   float64
	OtherJ     float64
	EnergyJ    float64
	EnergyNorm float64
}

// Fig21b is the SPACX photonic-network energy breakdown of Figure 21(b)
// for a ResNet-50 inference pass.
type Fig21b struct {
	Params   string
	EOJ      float64
	OEJ      float64
	HeatingJ float64
	LaserJ   float64
	TotalJ   float64
}

// Fig21a runs the five accelerator variants on the four models (plus A.M.).
func Fig21a() ([]Fig21aRow, error) {
	spxMod, err := sim.SPACXAccelCustom(32, 32, 8, 16, photonic.Moderate(), true)
	if err != nil {
		return nil, err
	}
	spxAgg, err := sim.SPACXAccelCustom(32, 32, 8, 16, photonic.Aggressive(), true)
	if err != nil {
		return nil, err
	}
	names := []string{
		"Simba",
		"POPSTAR (moderate)",
		"POPSTAR (aggressive)",
		"SPACX (moderate)",
		"SPACX (aggressive)",
	}
	accs := []sim.Accelerator{
		sim.SimbaAccel(),
		sim.POPSTARAccel(),
		sim.POPSTARAccelParams(photonic.Aggressive()),
		spxMod,
		spxAgg,
	}
	models := dnn.Benchmarks()
	grid, err := runGrid("fig21a", models, accs, sim.WholeInference)
	if err != nil {
		return nil, err
	}
	var rows []Fig21aRow
	sums := map[string]*Fig21aRow{}
	order := []string{}
	for mi, m := range models {
		var base float64
		for ai, name := range names {
			r := grid[mi][ai]
			if ai == 0 {
				base = r.TotalEnergy
			}
			row := Fig21aRow{
				Model: m.Name, Accel: name,
				NetworkJ: r.NetworkEnergy, OtherJ: r.ComputeEnergy,
				EnergyJ: r.TotalEnergy, EnergyNorm: r.TotalEnergy / base,
			}
			rows = append(rows, row)
			s, ok := sums[name]
			if !ok {
				s = &Fig21aRow{Model: "A.M.", Accel: name}
				sums[name] = s
				order = append(order, name)
			}
			s.EnergyNorm += row.EnergyNorm / 4
		}
	}
	for _, a := range order {
		rows = append(rows, *sums[a])
	}
	return rows, nil
}

// Fig21bBreakdown computes the SPACX network-energy split for a ResNet-50
// pass under both photonic parameter sets.
func Fig21bBreakdown() ([]Fig21b, error) {
	params := []photonic.Params{photonic.Moderate(), photonic.Aggressive()}
	return mapPoints("fig21b", len(params), func(i int) (Fig21b, error) {
		p := params[i]
		acc, err := sim.SPACXAccelCustom(32, 32, 8, 16, p, true)
		if err != nil {
			return Fig21b{}, err
		}
		r, err := sim.Request{Accel: acc, Model: dnn.ResNet50(), Mode: sim.WholeInference}.Totals(nil)
		if err != nil {
			return Fig21b{}, err
		}
		return Fig21b{
			Params:   p.Name,
			EOJ:      r.NetDynamic.EO,
			OEJ:      r.NetDynamic.OE,
			HeatingJ: r.NetStaticJ.Heating,
			LaserJ:   r.NetStaticJ.Laser,
			TotalJ:   r.NetworkEnergy,
		}, nil
	})
}
