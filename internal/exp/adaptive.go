package exp

import (
	"spacx/internal/dnn"
	"spacx/internal/photonic"
	"spacx/internal/sim"
)

// AdaptiveRow is one model's outcome of the adaptive-granularity extension
// study: Section V shows finer broadcast groups recover utilization for
// mismatched layers; here the execution controller retunes the splitters
// between layers so every layer runs at its own best (gEF, gK), instead of
// the fixed deployment granularity.
type AdaptiveRow struct {
	Model string

	FixedExecSec    float64 // fixed (e/f=8, k=16)
	AdaptiveExecSec float64 // per-layer best granularity
	Speedup         float64 // Fixed / Adaptive
	ReconfigCount   int     // layers whose best differs from the previous layer's
}

// adaptiveCandidates are the granularity pairs the controller may pick.
var adaptiveCandidates = [][2]int{
	{4, 4}, {4, 8}, {4, 16}, {4, 32},
	{8, 4}, {8, 8}, {8, 16}, {8, 32},
	{16, 4}, {16, 8}, {16, 16}, {16, 32},
	{32, 4}, {32, 8}, {32, 16}, {32, 32},
}

// AdaptiveGranularity runs the study over the four benchmark models. Every
// (model, layer) point — the fixed-granularity run plus the 16-candidate
// search — is independent, so the flattened grid runs across the worker
// pool; the controller's reconfiguration count depends on the layer order
// and is folded sequentially afterwards.
func AdaptiveGranularity() ([]AdaptiveRow, error) {
	// Pre-build one accelerator per candidate.
	accs := make([]sim.Accelerator, len(adaptiveCandidates))
	for i, c := range adaptiveCandidates {
		acc, err := sim.SPACXAccelCustom(32, 32, c[0], c[1], photonic.Moderate(), true)
		if err != nil {
			return nil, err
		}
		accs[i] = acc
	}
	fixed := sim.SPACXAccel()
	models := dnn.Benchmarks()

	// layerOutcome is one layer's evaluation: the fixed-configuration time
	// and the per-layer best candidate (before the retune penalty, which is
	// a sequential controller decision).
	type layerOutcome struct {
		fixedSec float64
		bestSec  float64
		best     int
	}
	type task struct {
		model int
		layer dnn.Layer
	}
	var tasks []task
	for mi, m := range models {
		for _, l := range m.Layers {
			tasks = append(tasks, task{mi, l})
		}
	}
	outcomes, err := mapPoints("adaptive", len(tasks), func(i int) (layerOutcome, error) {
		l := tasks[i].layer
		fr, err := sim.RunLayer(fixed, l, sim.WholeInference)
		if err != nil {
			return layerOutcome{}, err
		}
		o := layerOutcome{fixedSec: fr.ExecSec, best: -1}
		for ci, acc := range accs {
			r, err := sim.RunLayer(acc, l, sim.WholeInference)
			if err != nil {
				return layerOutcome{}, err
			}
			if o.best < 0 || r.ExecSec < o.bestSec {
				o.bestSec, o.best = r.ExecSec, ci
			}
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([]AdaptiveRow, len(models))
	prevBest := make([]int, len(models))
	for mi, m := range models {
		rows[mi] = AdaptiveRow{Model: m.Name}
		prevBest[mi] = -1
	}
	for ti, t := range tasks {
		o := outcomes[ti]
		row := &rows[t.model]
		l := t.layer
		row.FixedExecSec += o.fixedSec * float64(l.Repeat)
		// Switching granularity between layers retunes every interface
		// splitter; the 500 ps DAC settle is paid once per switch.
		bestT := o.bestSec
		if o.best != prevBest[t.model] && prevBest[t.model] >= 0 {
			row.ReconfigCount++
			bestT += photonic.SplitterTuneDelaySeconds
		}
		prevBest[t.model] = o.best
		row.AdaptiveExecSec += bestT * float64(l.Repeat)
	}
	for i := range rows {
		rows[i].Speedup = rows[i].FixedExecSec / rows[i].AdaptiveExecSec
	}
	return rows, nil
}
