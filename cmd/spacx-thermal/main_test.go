package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"spacx/internal/dnn"
	"spacx/internal/exp"
	"spacx/internal/sim"
)

// TestOutFileMatchesMarshalIndent pins the -out file: a diurnal replay's
// report and the -capacity rows are each json.MarshalIndent of a direct
// driver call plus a newline, byte for byte.
func TestOutFileMatchesMarshalIndent(t *testing.T) {
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

	rep, err := exp.ThermalReplay(exp.ThermalReplayConfig{
		Model: dnn.AlexNet(), Mode: sim.LayerByLayer, Profile: exp.ProfileDiurnal,
		Seed: 7, Steps: 720, StepSec: 10, Feedback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exp.ThermalCapacity(dnn.AlexNet(), sim.LayerByLayer, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name     string
		capacity bool
		want     any
	}{
		{name: "diurnal", want: rep},
		{name: "capacity", capacity: true, want: rows},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := options{model: "alexnet", mode: "layer", profile: exp.ProfileDiurnal, seed: 7,
				steps: 720, dt: 10, feedback: true, capacity: tc.capacity,
				out: filepath.Join(dir, tc.name+".json")}
			if err := run(o); err != nil {
				t.Fatalf("run: %v", err)
			}
			got, err := os.ReadFile(o.out)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.MarshalIndent(tc.want, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if want = append(want, '\n'); !bytes.Equal(got, want) {
				t.Fatalf("-out file (%d bytes) differs from json.MarshalIndent (%d bytes)", len(got), len(want))
			}
		})
	}
}
