package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"spacx/internal/dnn"
	"spacx/internal/sim"
)

func runSmall(t *testing.T) sim.ModelResult {
	t.Helper()
	m := dnn.Model{Name: "tiny", Layers: []dnn.Layer{
		dnn.NewSameConv("a", 28, 3, 64, 64, 1).Times(2),
		dnn.NewFC("b", 256, 100),
	}}
	res, err := sim.Run(sim.SPACXAccel(), m, sim.WholeInference)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExportValidJSON(t *testing.T) {
	res := runSmall(t)
	var buf bytes.Buffer
	if err := Export(&buf, res); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	if tf.OtherData["model"] != "tiny" || tf.OtherData["accelerator"] != "SPACX" {
		t.Errorf("metadata wrong: %v", tf.OtherData)
	}
	// Compute events for both instances of layer "a" plus layer "b".
	computes := 0
	for _, e := range tf.TraceEvents {
		if name, _ := e["name"].(string); strings.HasSuffix(name, "/compute") {
			computes++
		}
	}
	if computes != 3 {
		t.Errorf("compute events = %d, want 3 (2 repeats + 1)", computes)
	}
	// Events are ordered and non-overlapping across layer spans: each
	// compute event's ts must be non-decreasing.
	last := -1.0
	for _, e := range tf.TraceEvents {
		if name, _ := e["name"].(string); strings.HasSuffix(name, "/compute") {
			ts := e["ts"].(float64)
			if ts < last {
				t.Errorf("compute events out of order: %v after %v", ts, last)
			}
			last = ts
		}
	}
}

func TestExportRowNames(t *testing.T) {
	res := runSmall(t)
	var buf bytes.Buffer
	if err := Export(&buf, res); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"weight broadcast", "ifmap broadcast", "outputs/psums", "DRAM"} {
		if !strings.Contains(s, want) {
			t.Errorf("trace missing row name %q", want)
		}
	}
}

// TestExportByteStable exports one result 20 times and requires identical
// bytes, with the row-name metadata events in tid order.
func TestExportByteStable(t *testing.T) {
	res := runSmall(t)
	var first bytes.Buffer
	if err := Export(&first, res); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		var buf bytes.Buffer
		if err := Export(&buf, res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), first.Bytes()) {
			t.Fatalf("export %d differs from the first", i)
		}
	}
	var tf struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			TID   int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(first.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	var tids []int
	for _, e := range tf.TraceEvents {
		if e.Phase == "M" && e.Name == "thread_name" {
			tids = append(tids, e.TID)
		}
	}
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(tids, want) {
		t.Errorf("thread_name tids = %v, want %v", tids, want)
	}
}

// TestExportWellFormed decodes the export for a small model on both SPACX
// and Simba and checks structural invariants of the event stream.
func TestExportWellFormed(t *testing.T) {
	m := dnn.Model{Name: "tiny", Layers: []dnn.Layer{
		dnn.NewSameConv("a", 28, 3, 64, 64, 1).Times(2),
		dnn.NewFC("b", 256, 100),
	}}
	for _, acc := range []sim.Accelerator{sim.SPACXAccel(), sim.SimbaAccel()} {
		t.Run(acc.Name(), func(t *testing.T) {
			res, err := sim.Run(acc, m, sim.WholeInference)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Export(&buf, res); err != nil {
				t.Fatal(err)
			}
			var tf struct {
				TraceEvents []struct {
					Name  string         `json:"name"`
					Phase string         `json:"ph"`
					TS    float64        `json:"ts"`
					Dur   float64        `json:"dur"`
					TID   int            `json:"tid"`
					Args  map[string]any `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
				t.Fatalf("invalid trace JSON: %v", err)
			}

			rowNames := map[string]bool{}
			lastComputeEnd := 0.0
			for _, e := range tf.TraceEvents {
				switch e.Phase {
				case "M":
					if e.Name != "thread_name" {
						t.Errorf("unexpected metadata event %q", e.Name)
					}
					name, _ := e.Args["name"].(string)
					rowNames[name] = true
				case "X":
					if e.TS < 0 || e.Dur <= 0 {
						t.Errorf("event %q has non-positive span: ts=%v dur=%v", e.Name, e.TS, e.Dur)
					}
					if strings.HasSuffix(e.Name, "/compute") {
						// Compute slices of successive layer instances must
						// not overlap: each starts at the layer cursor, which
						// advances by the full ExecSec.
						if e.TS < lastComputeEnd-1e-9 {
							t.Errorf("compute %q at ts=%v overlaps previous end %v", e.Name, e.TS, lastComputeEnd)
						}
						lastComputeEnd = e.TS + e.Dur
					}
				default:
					t.Errorf("unexpected event phase %q", e.Phase)
				}
			}
			for _, want := range []string{"compute", "weight broadcast", "ifmap broadcast", "outputs/psums", "DRAM"} {
				if !rowNames[want] {
					t.Errorf("missing thread_name row %q (have %v)", want, rowNames)
				}
			}
		})
	}
}

// TestExportUsesFlowSecs checks flow-event durations come from the
// simulator's own per-flow transfer times, not a fixed-bandwidth
// approximation.
func TestExportUsesFlowSecs(t *testing.T) {
	res := runSmall(t)
	want := map[string]float64{} // name -> duration in us
	for _, lr := range res.Layers {
		if len(lr.FlowSecs) != len(lr.Profile.Flows) {
			t.Fatalf("layer %s: %d FlowSecs for %d flows", lr.Layer.Name, len(lr.FlowSecs), len(lr.Profile.Flows))
		}
		for i, f := range lr.Profile.Flows {
			want[lr.Layer.Name+"/"+f.Class.String()] = lr.FlowSecs[i] * 1e6
		}
	}
	var buf bytes.Buffer
	if err := Export(&buf, res); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range tf.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		w, ok := want[e.Name]
		if !ok {
			continue
		}
		checked++
		if diff := e.Dur - w; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("flow event %q dur = %v us, want FlowSecs value %v us", e.Name, e.Dur, w)
		}
	}
	if checked == 0 {
		t.Error("no flow events matched the simulator's FlowSecs table")
	}
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

func TestExportFile(t *testing.T) {
	res := runSmall(t)
	var buf bytes.Buffer
	create := func(string) (io.WriteCloser, error) { return nopCloser{&buf}, nil }
	if err := ExportFile(create, "x.json", res); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("nothing written")
	}
	failing := func(string) (io.WriteCloser, error) { return nil, errors.New("nope") }
	if err := ExportFile(failing, "x.json", res); err == nil {
		t.Error("create failure should propagate")
	}
}
