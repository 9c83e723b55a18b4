package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spacx/internal/obs/ledger"
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

func TestObservabilityFlagValidation(t *testing.T) {
	base := options{only: "table1", packets: 100, format: "text", jobs: 1}

	o := base
	o.regress = -1
	if err := run(o); err == nil {
		t.Error("negative -regress should fail")
	}
	o = base
	o.regress = 1.5
	if err := run(o); err == nil {
		t.Error("-regress without -ledger should fail")
	}
}

func TestLedgerRecordsRun(t *testing.T) {
	dir := t.TempDir()
	o := options{only: "table1", packets: 100, format: "text", jobs: 2,
		ledgerPath: filepath.Join(dir, "runs.jsonl")}

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

	// Two runs: the second also exercises -regress against the first.
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	o.regress = 100 // generous: nothing should be flagged, only compared
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	recs, err := ledger.Read(o.ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("ledger records = %d, want 2", len(recs))
	}
	for i, rec := range recs {
		if rec.Schema != ledger.SchemaVersion || rec.Cmd != "spacx-report" ||
			rec.Target != "table1" || rec.Jobs != 2 {
			t.Errorf("record %d header wrong: %+v", i, rec)
		}
		if rec.WallSec <= 0 || rec.PeakGoroutines <= 0 || rec.PeakHeapBytes == 0 {
			t.Errorf("record %d missing runtime stats: %+v", i, rec)
		}
		found := false
		for _, d := range rec.Drivers {
			if d.Name == "table1" && d.Points == 1 && d.WallSec > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("record %d has no table1 driver stat: %+v", i, rec.Drivers)
		}
		if len(rec.Histograms) == 0 {
			t.Errorf("record %d has no histogram summaries", i)
		}
		for _, h := range rec.Histograms {
			if h.P50 < h.Min || h.P99 > h.Max || h.P50 > h.P95 || h.P95 > h.P99 {
				t.Errorf("record %d quantiles inconsistent: %+v", i, h)
			}
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
