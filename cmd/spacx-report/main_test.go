package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run(options{only: "", packets: 100, format: "nosuchformat", jobs: 1}); err == nil {
		t.Error("unknown format should fail")
	}
	if err := run(options{only: "nosuchartifact", packets: 100, format: "text", jobs: 1}); err == nil {
		t.Error("unknown artifact should fail")
	}
	if err := run(options{only: "fig16", packets: 0, format: "text", jobs: 1}); err == nil {
		t.Error("non-positive packet count should fail")
	}
	if err := run(options{only: "fig19", packets: 100, format: "text", jobs: 0}); err == nil {
		t.Error("non-positive -j should fail")
	}
	if err := runCSV(os.Stdout, "", 100); err == nil {
		t.Error("csv without -only should fail")
	}
	if err := runCSV(os.Stdout, "table1", 100); err == nil {
		t.Error("csv for a text-only artifact should fail")
	}
}

func TestBadArtifactFailsBeforeSideEffects(t *testing.T) {
	dir := t.TempDir()
	o := options{only: "nosuchartifact", packets: 100, format: "text", jobs: 1,
		metrics: filepath.Join(dir, "m.prom")}
	if err := run(o); err == nil {
		t.Fatal("unknown artifact should fail")
	}
	if _, err := os.Stat(o.metrics); err == nil {
		t.Error("metrics file was written despite the invalid -only")
	}
}

func TestFig19MetricsSnapshot(t *testing.T) {
	dir := t.TempDir()
	o := options{only: "fig19", packets: 100, format: "text", jobs: 1,
		metrics: filepath.Join(dir, "m.prom")}

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

	if err := run(o); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(o.metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`spacx_exp_points_total{sweep="power-point"}`,
		"# TYPE spacx_exp_point_seconds histogram",
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
}

func TestMetricsDashWritesStdout(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(options{only: "table1", packets: 100, format: "text", jobs: 1, metrics: "-"})
	w.Close()
	os.Stdout = stdout
	out, readErr := io.ReadAll(r)
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	if !strings.Contains(string(out), `spacx_exp_points_total{sweep="table1"} 1`) {
		t.Errorf("-metrics - must write the exposition to stdout, got:\n%s", out)
	}
}
