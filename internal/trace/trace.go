// Package trace exports a simulated execution as a Chrome trace-event JSON
// file (the chrome://tracing / Perfetto format): one row per chiplet-group
// resource showing the weight-broadcast, ifmap-broadcast, compute, and
// token-ring drain phases of every layer, with the overlap structure the
// simulator assumed. Load the output via chrome://tracing -> Load.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"spacx/internal/network"
	"spacx/internal/sim"
)

// event is one Chrome trace event (the "X" complete-event form).
type event struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`  // microseconds
	Dur   float64        `json:"dur"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level JSON object.
type traceFile struct {
	TraceEvents []event        `json:"traceEvents"`
	Metadata    map[string]any `json:"otherData,omitempty"`
}

// Rows (tids) within the accelerator process.
const (
	rowCompute = iota
	rowWeights
	rowIfmaps
	rowOutputs
	rowDRAM
)

// rowNames are the rows' display names, indexed by tid.
var rowNames = [...]string{
	rowCompute: "compute", rowWeights: "weight broadcast",
	rowIfmaps: "ifmap broadcast", rowOutputs: "outputs/psums", rowDRAM: "DRAM",
}

// Export writes the per-layer schedule of a model result as trace JSON.
// Within each layer, input broadcasts and DRAM transfers run concurrently
// with compute from the layer's start (the simulator's maximal-overlap
// assumption); the layer's span is its simulated execution time.
func Export(w io.Writer, res sim.ModelResult) error {
	tf := traceFile{Metadata: map[string]any{
		"model":       res.Model,
		"accelerator": res.Accel,
		"mode":        res.Mode.String(),
	}}
	us := func(sec float64) float64 { return sec * 1e6 }

	cursor := 0.0
	for _, lr := range res.Layers {
		for rep := 0; rep < lr.Layer.Repeat; rep++ {
			base := cursor
			add := func(tid int, name string, durSec float64, args map[string]any) {
				if durSec <= 0 {
					return
				}
				tf.TraceEvents = append(tf.TraceEvents, event{
					Name: name, Cat: "spacx", Phase: "X",
					TS: us(base), Dur: us(durSec),
					PID: 1, TID: tid, Args: args,
				})
			}
			add(rowCompute, lr.Layer.Name+"/compute", lr.ComputeSec, map[string]any{
				"activePEs": lr.Profile.ActivePEs,
				"macs":      lr.Profile.MACs(),
			})
			for i, f := range lr.Profile.Flows {
				// The simulator records each flow's modeled transfer time
				// alongside the profile (sim.LayerResult.FlowSecs).
				var dur float64
				if i < len(lr.FlowSecs) {
					dur = lr.FlowSecs[i]
				}
				switch {
				case f.Dir == network.GBToPE && f.Class == network.Weights:
					add(rowWeights, lr.Layer.Name+"/weights", dur, flowArgs(f))
				case f.Dir == network.GBToPE && f.Class == network.Ifmaps:
					add(rowIfmaps, lr.Layer.Name+"/ifmaps", dur, flowArgs(f))
				default:
					add(rowOutputs, lr.Layer.Name+"/"+f.Class.String(), dur, flowArgs(f))
				}
			}
			add(rowDRAM, lr.Layer.Name+"/dram", lr.DRAMSec, map[string]any{
				"bytes": lr.DRAMBytes,
			})
			cursor = base + lr.ExecSec
		}
	}

	// Row names for the viewer, in row (tid) order so the file is
	// byte-stable.
	for tid, name := range rowNames {
		tf.TraceEvents = append(tf.TraceEvents, event{
			Name: "thread_name", Phase: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": name},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

func flowArgs(f network.Flow) map[string]any {
	return map[string]any{
		"uniqueBytes":  f.UniqueBytes,
		"streams":      f.Streams,
		"destPerDatum": f.DestPerDatum,
		"txCopies":     f.TxCopies,
	}
}

// ExportFile is a convenience wrapper writing to a file path via the
// provided create function (kept injectable for tests).
func ExportFile(create func(string) (io.WriteCloser, error), path string, res sim.ModelResult) error {
	w, err := create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer w.Close()
	return Export(w, res)
}
