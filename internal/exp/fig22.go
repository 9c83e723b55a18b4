package exp

import (
	"spacx/internal/dnn"
	"spacx/internal/photonic"
	"spacx/internal/sim"
)

// Fig22Row is one point of the scalability study: a (M, N) machine size and
// the three accelerators' ResNet-50 execution time and energy, normalized to
// each accelerator's own M=32, N=32 SPACX-relative baseline as in the figure
// (all values normalized to the M=32 N=32 SPACX configuration).
type Fig22Row struct {
	M, N  int
	Accel string

	ExecSec float64
	EnergyJ float64

	ExecNorm   float64 // normalized to SPACX at M=32, N=32
	EnergyNorm float64
}

// Fig22 sweeps the chiplet count and PE count as in the paper: M in
// {16, 32, 64} with N=32, and N in {16, 32, 64} with M=32. The fifteen
// (size, accelerator) points run across the worker pool through
// sim.ObservedRunner, so an installed recorder sees every layer's
// spacx_sim_* series (the obs registry is mutex-guarded, and per-point
// timers are started and stopped on the same goroutine).
func Fig22() ([]Fig22Row, error) {
	res := dnn.ResNet50()
	sizes := [][2]int{{16, 32}, {32, 32}, {64, 32}, {32, 16}, {32, 64}}

	baseAcc, err := sim.SPACXAccelCustom(32, 32, 8, 16, photonic.Moderate(), true)
	if err != nil {
		return nil, err
	}
	base, err := sim.Request{Accel: baseAcc, Model: res, Mode: sim.WholeInference}.Totals(nil)
	if err != nil {
		return nil, err
	}

	type task struct {
		m, n int
		acc  sim.Accelerator
	}
	var tasks []task
	for _, mn := range sizes {
		m, n := mn[0], mn[1]
		spx, err := sim.SPACXAccelCustom(m, n, 8, 16, photonic.Moderate(), true)
		if err != nil {
			return nil, err
		}
		for _, acc := range []sim.Accelerator{
			sim.SimbaAccelSized(m, n),
			sim.POPSTARAccelSized(m, n),
			spx,
		} {
			tasks = append(tasks, task{m, n, acc})
		}
	}
	observed := sim.ObservedRunner(recorder)
	return mapPoints("fig22", len(tasks), func(i int) (Fig22Row, error) {
		t := tasks[i]
		r, err := sim.Request{Accel: t.acc, Model: res, Mode: sim.WholeInference}.Totals(observed)
		if err != nil {
			return Fig22Row{}, err
		}
		recorder.Logger().Info("fig22 point", "m", t.m, "n", t.n, "accel", t.acc.Name())
		return Fig22Row{
			M: t.m, N: t.n, Accel: t.acc.Name(),
			ExecSec: r.ExecSec, EnergyJ: r.TotalEnergy,
			ExecNorm:   r.ExecSec / base.ExecSec,
			EnergyNorm: r.TotalEnergy / base.TotalEnergy,
		}, nil
	})
}
