package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// update rewrites the stored references instead of comparing against them:
//
//	go test -run TestReference -update
var update = flag.Bool("update", false, "rewrite testdata/fig16-20000.golden.json and testdata/report.txt")

// TestReference checks a full report against every reference the report
// workload uses; with -update it rewrites the two references the benchmark
// stores itself.
func TestReference(t *testing.T) {
	reportDefaults()
	var buf bytes.Buffer
	res, _, err := coldReport(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		for _, r := range res {
			if r.name != "fig16" {
				continue
			}
			b, err := goldenBytes(r.rows)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join("testdata", "fig16-20000.golden.json"), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join("testdata", "report.txt"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	d := newDigests()
	if err := recordReport(d, 0, buf.Bytes(), res); err != nil {
		t.Fatal(err)
	}
	// Every driver call has its exp.<name>_ms per-layer metric.
	want := []string{"text"}
	for _, l := range layerDefs {
		if name, ok := strings.CutPrefix(l.name, "exp."); ok && strings.HasSuffix(name, "_ms") {
			want = append(want, strings.TrimSuffix(name, "_ms"))
		}
	}
	sort.Strings(want)
	if got := d.keys(); !slices.Equal(got, want) {
		t.Fatalf("recorded outputs %v, want %v", got, want)
	}
	failed, lines, err := d.check(1, reportRef(".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("report differs from its references: %v", lines)
	}
}

// TestFlippedReferenceByteFailsOp shows the after-phase check reports an op
// as failed when one byte of one reference differs from its output.
func TestFlippedReferenceByteFailsOp(t *testing.T) {
	reportDefaults()
	var buf bytes.Buffer
	res, _, err := coldReport(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigests()
	if err := recordReport(d, 7, buf.Bytes(), res); err != nil {
		t.Fatal(err)
	}
	ref := reportRef("..")
	flipped := func(key string) ([]byte, error) {
		b, err := ref(key)
		if key == "table1" && err == nil {
			b = append([]byte(nil), b...)
			b[len(b)/2] ^= 1
		}
		return b, err
	}
	failed, lines, err := d.check(1, flipped)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || !failed[7] || len(lines) != 1 {
		t.Fatalf("failed ops %v, mismatch lines %q; want op 7 failed on table1", failed, lines)
	}
	out := &outcome{}
	out.addFailed(failed)
	if out.failed != 1 {
		t.Fatalf("outcome counts %d failed ops, want 1", out.failed)
	}
}

// TestSelfTimes checks self time on a hand-built tree whose children
// overlap each other, outlive their parent, and nest.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 50, End: 70}, // outlives b
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120},
		{ID: 6, Parent: 5, Name: "e", Start: 95, End: 100},
		{ID: 7, Parent: 5, Name: "f", Start: 98, End: 110}, // overlaps e
	}
	want := map[int64]int64{
		1: 100 - (60 + 10), // [10,70] and [90,100] covered
		2: 30,
		3: 30 - 10, // c covers [50,60]
		4: 20,
		5: 30 - 15, // e and f cover [95,110]
		6: 5,
		7: 12,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self = %d, want %d", id, got[id], w)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that the result line carries exactly
// the metrics BENCHMARK.json declares, with its units: the end-to-end ones
// untraced, the per-layer ones (in declaration order) traced.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var decl struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}

	m := map[string]metric{}
	endToEnd(&outcome{opName: "op", lat: []float64{1, 2, 3}, setup: []float64{1},
		ph: phaseStats{wallSec: 1, cpuSec: 1, heapMB: 1}}, m)
	got, want := map[string]string{}, map[string]string{}
	for name, v := range m {
		got[name] = v.Unit
	}
	for _, e := range decl.EndToEnd {
		want[e.Name] = e.Unit
	}
	if !maps.Equal(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}

	var layers []entry
	for _, d := range layerDefs {
		layers = append(layers, entry{d.name, d.unit})
	}
	if !slices.Equal(layers, decl.PerLayer) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", layers, decl.PerLayer)
	}
}
