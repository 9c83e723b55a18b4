package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spacx"
)

func opts(model, accel, mode, format string) options {
	return options{model: model, accel: accel, mode: mode, format: format, batch: 1, probePackets: 20000}
}

// silencing run's stdout keeps `go test` output readable.
func runQuiet(t *testing.T, o options) error {
	t.Helper()
	stdout := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() {
		os.Stdout = stdout
		null.Close()
	}()
	return run(o)
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run(opts("nosuchmodel", "spacx", "whole", "text")); err == nil {
		t.Error("unknown model should fail")
	}
	if err := run(opts("resnet50", "nosuchaccel", "whole", "text")); err == nil {
		t.Error("unknown accelerator should fail")
	}
	if err := run(opts("resnet50", "spacx", "nosuchmode", "text")); err == nil {
		t.Error("unknown mode should fail")
	}
	if err := run(opts("resnet50", "spacx", "whole", "nosuchformat")); err == nil {
		t.Error("unknown format should fail")
	}
	o := opts("resnet50", "spacx", "whole", "text")
	o.batch = 0
	if err := run(o); err == nil {
		t.Error("non-positive batch should fail")
	}
	o = opts("resnet50", "spacx", "whole", "text")
	o.trace = "/no/such/dir/trace.json"
	if err := runQuiet(t, o); err == nil {
		t.Error("unwritable trace path should fail")
	}
}

func TestValidateFlagConsistency(t *testing.T) {
	base := opts("resnet50", "spacx", "whole", "text")
	if err := validate(base); err != nil {
		t.Fatalf("baseline options should validate: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*options)
		want   string
	}{
		{"explain with json", func(o *options) { o.explain = true; o.format = "json" }, "-explain"},
		{"bad format", func(o *options) { o.format = "yaml" }, "format"},
		{"zero batch", func(o *options) { o.batch = 0 }, "batch"},
		{"negative batch", func(o *options) { o.batch = -4 }, "batch"},
		{"zero probe packets", func(o *options) { o.probePackets = 0 }, "probe-packets"},
		{"negative probe packets", func(o *options) { o.probePackets = -1 }, "probe-packets"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := base
			tc.mutate(&o)
			err := validate(o)
			if err == nil {
				t.Fatal("validate accepted inconsistent flags")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q should name %q", err, tc.want)
			}
		})
	}

	// -explain with the default text format stays valid.
	o := base
	o.explain = true
	if err := validate(o); err != nil {
		t.Errorf("-explain with text format should validate: %v", err)
	}
}

func TestBadFormatFailsBeforeSideEffects(t *testing.T) {
	// A -format typo must fail before the simulation runs and before any
	// trace/metrics file is written.
	dir := t.TempDir()
	o := opts("resnet50", "spacx", "whole", "nosuchformat")
	o.trace = filepath.Join(dir, "trace.json")
	o.metrics = filepath.Join(dir, "m.prom")
	if err := run(o); err == nil {
		t.Fatal("unknown format should fail")
	}
	for _, p := range []string{o.trace, o.metrics} {
		if _, err := os.Stat(p); err == nil {
			t.Errorf("%s was written despite the invalid -format", p)
		}
	}
}

func TestMetricsSnapshotWritten(t *testing.T) {
	dir := t.TempDir()
	promPath := filepath.Join(dir, "m.prom")
	o := opts("alexnet", "spacx", "whole", "text")
	o.metrics = promPath
	o.probePackets = 500
	if err := runQuiet(t, o); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)
	for _, want := range []string{
		"# TYPE spacx_sim_flow_bytes_total counter",
		`spacx_sim_flow_bytes_total{class="weights",dir="gb_to_pe"}`,
		"# TYPE spacx_sim_layer_mapping_seconds histogram",
		"spacx_sim_layer_mapping_seconds_count",
		"# TYPE spacx_eventsim_packet_latency_seconds histogram",
		"spacx_eventsim_packet_latency_seconds_bucket",
		"# TYPE spacx_dataflow_broadcast_width histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}

	// The same data must be exportable as JSON.
	jsonPath := filepath.Join(dir, "m.json")
	o.metrics = jsonPath
	if err := runQuiet(t, o); err != nil {
		t.Fatal(err)
	}
	jb, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(jb) {
		t.Fatalf("metrics JSON invalid: %.200s", jb)
	}
}

func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	o := opts("alexnet", "spacx", "whole", "text")
	o.cpuProfile = filepath.Join(dir, "cpu.prof")
	o.memProfile = filepath.Join(dir, "mem.prof")
	if err := runQuiet(t, o); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{o.cpuProfile, o.memProfile} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

// TestJSONFlowShape reads spacx-sim's -format json output for AlexNet on
// SPACX and on Simba (whose WS mapper emits 3 flows for conv1 and 4 for the
// layers after it): every layer's Profile.Flows is a JSON array holding the
// mapper's flow count of objects with the 8 flow keys, and FlowSecs has one
// time per flow.
func TestJSONFlowShape(t *testing.T) {
	flowKeys := []string{"Class", "Dir", "UniqueBytes", "Streams", "DestPerDatum", "TxCopies", "ChipletSpan", "PESpan"}
	for _, accel := range []string{"spacx", "simba"} {
		t.Run(accel, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out.json")
			f, err := os.Create(out)
			if err != nil {
				t.Fatal(err)
			}
			stdout := os.Stdout
			os.Stdout = f
			runErr := run(opts("alexnet", accel, "whole", "json"))
			os.Stdout = stdout
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if runErr != nil {
				t.Fatal(runErr)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var res struct {
				Layers []struct {
					Profile struct {
						Flows json.RawMessage
					}
					FlowSecs json.RawMessage
				}
			}
			if err := json.Unmarshal(data, &res); err != nil {
				t.Fatal(err)
			}

			acc, err := parseAccel(accel)
			if err != nil {
				t.Fatal(err)
			}
			m := spacx.AlexNet()
			if len(res.Layers) != len(m.Layers) {
				t.Fatalf("%d layers in the JSON, want %d", len(res.Layers), len(m.Layers))
			}
			counts := map[int]bool{}
			for i, lr := range res.Layers {
				p, err := acc.Flow.Map(m.Layers[i], acc.Arch)
				if err != nil {
					t.Fatal(err)
				}
				want := len(p.Flows)
				counts[want] = true
				var flows []map[string]json.RawMessage
				if !bytes.HasPrefix(lr.Profile.Flows, []byte("[")) || json.Unmarshal(lr.Profile.Flows, &flows) != nil {
					t.Fatalf("layer %d: Profile.Flows = %.80s, want a JSON array", i, lr.Profile.Flows)
				}
				if len(flows) != want {
					t.Fatalf("layer %d: %d flows, want %d", i, len(flows), want)
				}
				for j, fl := range flows {
					if len(fl) != len(flowKeys) {
						t.Fatalf("layer %d flow %d has %d keys, want %d", i, j, len(fl), len(flowKeys))
					}
					for _, k := range flowKeys {
						if _, ok := fl[k]; !ok {
							t.Fatalf("layer %d flow %d lacks %q", i, j, k)
						}
					}
				}
				var secs []float64
				if err := json.Unmarshal(lr.FlowSecs, &secs); err != nil || len(secs) != want {
					t.Fatalf("layer %d: FlowSecs = %.80s, want %d times", i, lr.FlowSecs, want)
				}
			}
			if accel == "simba" && !(counts[3] && counts[4]) {
				t.Fatalf("Simba flow counts %v, want both 3 and 4", counts)
			}
		})
	}
}
