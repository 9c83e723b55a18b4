package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spacx/internal/obs/ledger"
)

func opts(sweep, params string, m, n int) options {
	return options{sweep: sweep, params: params, m: m, n: n, jobs: 1}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run(opts("nosuchsweep", "moderate", 32, 32)); err == nil {
		t.Error("unknown sweep should fail")
	}
	if err := run(opts("power", "nosuchparams", 32, 32)); err == nil {
		t.Error("unknown params should fail")
	}
	if err := run(opts("power", "moderate", -1, 32)); err == nil {
		t.Error("negative machine size should fail the sweep")
	}
	bad := opts("power", "moderate", 32, 32)
	bad.jobs = 0
	if err := run(bad); err == nil {
		t.Error("non-positive -j should fail")
	}
}

func TestBadSweepFailsBeforeSideEffects(t *testing.T) {
	dir := t.TempDir()
	o := opts("nosuchsweep", "moderate", 32, 32)
	o.metrics = filepath.Join(dir, "m.prom")
	if err := run(o); err == nil {
		t.Fatal("unknown sweep should fail")
	}
	if _, err := os.Stat(o.metrics); err == nil {
		t.Error("metrics file was written despite the invalid -sweep")
	}
}

func TestPowerSweepWritesMetrics(t *testing.T) {
	dir := t.TempDir()
	o := opts("power", "moderate", 8, 8)
	o.metrics = filepath.Join(dir, "m.prom")

	// Silence the report table.
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
	out := string(b)
	for _, want := range []string{
		`spacx_exp_points_total{sweep="power-point"}`,
		"# TYPE spacx_exp_point_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
}

func TestObservabilityFlagValidation(t *testing.T) {
	o := opts("power", "moderate", 8, 8)
	o.httpLinger = -time.Second
	if err := run(o); err == nil {
		t.Error("negative -http-linger should fail")
	}
	o = opts("power", "moderate", 8, 8)
	o.regress = 1.5
	if err := run(o); err == nil {
		t.Error("-regress without -ledger should fail")
	}
}

func TestLedgerRecordsSweep(t *testing.T) {
	dir := t.TempDir()
	o := opts("power", "moderate", 8, 8)
	o.ledgerPath = filepath.Join(dir, "runs.jsonl")
	o.httpAddr = "127.0.0.1:0"
	o.httpLinger = 10 * time.Millisecond

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
	rec, ok, err := ledger.Last(o.ledgerPath)
	if err != nil || !ok {
		t.Fatalf("no ledger record: ok=%v err=%v", ok, err)
	}
	if rec.Cmd != "spacx-sweep" || rec.Target != "power" || rec.WallSec <= 0 {
		t.Errorf("record header wrong: %+v", rec)
	}
	found := false
	for _, d := range rec.Drivers {
		if d.Name == "power" && d.Points > 0 && d.WallSec > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no power driver stat with non-zero wall time: %+v", rec.Drivers)
	}
}
