package exp

import (
	"spacx/internal/dnn"
	"spacx/internal/sim"
)

// EngineRow compares the two SPACX execution-time engines on one model: the
// analytical aggregate-overlap engine and the epoch-pipelined detailed
// engine. Close agreement is the cross-check that the analytical results the
// figures are built from are not artifacts of the aggregation.
type EngineRow struct {
	Model         string
	AnalyticalSec float64
	DetailedSec   float64
	Ratio         float64 // detailed / analytical
}

// EngineAgreement runs both engines over the four benchmarks. Every (model,
// layer) point is independent, so the flattened layer list runs across the
// worker pool; the per-model sums fold sequentially in layer order.
func EngineAgreement() ([]EngineRow, error) {
	acc := sim.SPACXAccel()
	models := dnn.Benchmarks()

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
	type pair struct{ a, d float64 }
	pairs, err := mapPoints("engines", len(tasks), func(i int) (pair, error) {
		l := tasks[i].layer
		a, err := sim.RunLayer(acc, l, sim.WholeInference)
		if err != nil {
			return pair{}, err
		}
		d, err := sim.RunLayerDetailed(acc, l, sim.WholeInference)
		if err != nil {
			return pair{}, err
		}
		return pair{a.ExecSec, d.ExecSec}, nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([]EngineRow, len(models))
	for mi, m := range models {
		rows[mi] = EngineRow{Model: m.Name}
	}
	for ti, t := range tasks {
		rep := float64(t.layer.Repeat)
		rows[t.model].AnalyticalSec += pairs[ti].a * rep
		rows[t.model].DetailedSec += pairs[ti].d * rep
	}
	for i := range rows {
		rows[i].Ratio = rows[i].DetailedSec / rows[i].AnalyticalSec
	}
	return rows, nil
}
