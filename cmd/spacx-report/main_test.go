package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tableTest is one row of a table-driven test: Got is the input under
// test, Want what it must produce, and a non-nil Err marks a misuse row that
// must fail with an error containing Err's text instead.
type tableTest[G any, W any] struct {
	Name string
	Got  G
	Want W
	Err  error
	Skip bool
}

// capture runs spacx-report with o, its stdout redirected to a file, and
// returns what it wrote.
func capture(t *testing.T, o options) ([]byte, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	runErr := run(o)
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out, runErr
}

// runTable runs each row as a subtest and returns what each good row wrote.
// A good row's Want is the first line it writes (a section title or a CSV
// header). A misuse row must fail with its error before any side effect: no
// -metrics or -cpuprofile file is left.
func runTable(t *testing.T, rows []tableTest[options, string]) map[string][]byte {
	t.Helper()
	outs := map[string][]byte{}
	for _, tc := range rows {
		t.Run(tc.Name, func(t *testing.T) {
			if tc.Skip {
				t.Skip()
			}
			o := tc.Got
			if tc.Err != nil {
				dir := t.TempDir()
				o.metrics, o.cpuProfile = filepath.Join(dir, "m.prom"), filepath.Join(dir, "cpu.prof")
			}
			out, err := capture(t, o)
			if tc.Err != nil {
				if err == nil || !strings.Contains(err.Error(), tc.Err.Error()) {
					t.Errorf("error = %v, want one containing %q", err, tc.Err)
				}
				for _, path := range []string{o.metrics, o.cpuProfile} {
					if _, err := os.Stat(path); err == nil {
						t.Errorf("%s was written despite the misuse", filepath.Base(path))
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if first, _, _ := strings.Cut(string(out), "\n"); first != tc.Want {
				t.Fatalf("first line %q, want %q", first, tc.Want)
			}
			outs[tc.Name] = out
		})
	}
	return outs
}

// opts is a valid run of one -only value in one format, with a small
// -fig16-packets to keep the tests fast.
func opts(only, format string) options {
	return options{only: only, format: format, packets: 200, jobs: 2}
}

var needsOnly = errors.New("-format csv needs -only")

// TestRunTable pins -only and -format: every -only value as text and as
// CSV, where a text-only section's CSV row is a misuse row. fig14 must
// render fig13's bytes in both formats, and the full report must be every
// section's text in render order.
func TestRunTable(t *testing.T) {
	values := []struct{ only, text, csv string }{
		{"table1", "Table I — SPACX configurations (8 chiplets x 8 PEs example)", ""},
		{"table2", "Table II — network parameters (derived from the models)", ""},
		{"table34", "Tables III/IV — photonic parameters and derived laser power", ""},
		{"fig13", "Figures 13/14 — per-layer execution time and energy (normalized to Simba)",
			"bar,layer,accel,compute_sec,comm_sec,exec_norm,network_j,other_j,energy_norm"},
		{"fig14", "Figures 13/14 — per-layer execution time and energy (normalized to Simba)",
			"bar,layer,accel,compute_sec,comm_sec,exec_norm,network_j,other_j,energy_norm"},
		{"fig15", "Figure 15 — whole-inference execution time and energy (normalized to Simba)",
			"model,accel,exec_sec,exec_norm,energy_j,energy_norm,network_j,other_j"},
		{"fig16", "Figure 16 — network latency and throughput (normalized to Simba)",
			"model,accel,latency_sec,latency_norm,throughput_pps,throughput_norm"},
		{"fig17", "Figure 17 — dataflows on the SPACX architecture (normalized to WS)",
			"model,accel,exec_sec,exec_norm,energy_j,energy_norm,network_j,other_j"},
		{"fig18", "Figure 18 — bandwidth allocation on/off (normalized to Simba)",
			"model,accel,exec_sec,exec_norm,energy_j,energy_norm,network_j,other_j"},
		{"fig19", "Figure 19 — SPACX network power, moderate parameters",
			"k,ef,laser_w,tx_w,rx_w,interface_heat_w,transceiver_w,overall_w"},
		{"fig20", "Figure 20 — SPACX network power, aggressive parameters",
			"k,ef,laser_w,tx_w,rx_w,interface_heat_w,transceiver_w,overall_w"},
		{"fig21", "Figure 21(a) — energy breakdown across accelerators (normalized to Simba)", ""},
		{"fig22", "Figure 22 — scalability (ResNet-50; normalized to SPACX M=32 N=32)",
			"m,n,accel,exec_sec,exec_norm,energy_j,energy_norm"},
		{"ablation", "Ablation — SPACX design choices (normalized to the full design)", ""},
		{"tradeoff", "Granularity trade-off — ResNet-50 vs network power (Section VIII-E1 closing choice)", ""},
		{"adaptive", "Extension — per-layer adaptive broadcast granularity (Section V taken per layer)", ""},
		{"batch", "Extension — batch scaling on ResNet-50 (weights amortize across samples)", ""},
		{"engines", "Validation — analytical vs epoch-pipelined engine (SPACX, whole inference)", ""},
		{"area", "Section VIII-G — area estimation (per chiplet)", ""},
	}
	rows := []tableTest[options, string]{
		{Name: "full report", Got: opts("", "text"), Want: values[0].text},
	}
	for _, v := range values {
		rows = append(rows, tableTest[options, string]{
			Name: v.only + "/text", Got: opts(v.only, "text"), Want: v.text})
		row := tableTest[options, string]{
			Name: v.only + "/csv", Got: opts(v.only, "csv"), Want: v.csv}
		if v.csv == "" {
			row.Err = needsOnly
		}
		rows = append(rows, row)
	}
	outs := runTable(t, rows)

	for _, format := range []string{"text", "csv"} {
		if a, b := outs["fig13/"+format], outs["fig14/"+format]; !bytes.Equal(a, b) {
			t.Errorf("-only fig14 -format %s differs from fig13 (%d vs %d bytes)", format, len(b), len(a))
		}
	}
	var sections []byte
	for _, v := range values {
		if v.only != "fig14" {
			sections = append(sections, outs[v.only+"/text"]...)
		}
	}
	if !bytes.Equal(outs["full report"], sections) {
		t.Errorf("the full report (%d bytes) is not every section's text in render order (%d bytes)",
			len(outs["full report"]), len(sections))
	}
}

// TestRunRejectsBadInputs pins the bad flag values: each fails with its
// error before any side effect.
func TestRunRejectsBadInputs(t *testing.T) {
	zeroPackets, zeroJobs := opts("fig16", "text"), opts("fig19", "text")
	zeroPackets.packets, zeroJobs.jobs = 0, 0
	runTable(t, []tableTest[options, string]{
		{Name: "fig16-packets 0", Got: zeroPackets, Err: errors.New("fig16-packets must be >= 1")},
		{Name: "j 0", Got: zeroJobs, Err: errors.New("-j must be >= 1")},
		{Name: "unknown format", Got: opts("fig15", "xml"), Err: errors.New(`unknown format "xml"`)},
	})
}

// TestBadArtifactFailsBeforeSideEffects pins the bad section choices: an
// -only value no section answers, or a CSV run that names no section, fails
// with its error before any side effect.
func TestBadArtifactFailsBeforeSideEffects(t *testing.T) {
	runTable(t, []tableTest[options, string]{
		{Name: "unknown artifact", Got: opts("fig99", "text"), Err: errors.New(`unknown artifact "fig99"`)},
		{Name: "csv without -only", Got: opts("", "csv"), Err: needsOnly},
	})
}

// TestFig19MetricsSnapshot checks the -metrics file of a fig19 run: every
// power point is counted and timed once, under sweep="power".
func TestFig19MetricsSnapshot(t *testing.T) {
	o := options{only: "fig19", packets: 100, format: "text", jobs: 1,
		metrics: filepath.Join(t.TempDir(), "m.prom")}
	if _, err := capture(t, o); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(o.metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`spacx_exp_points_total{sweep="power"}`,
		"# TYPE spacx_exp_point_seconds histogram",
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
	if strings.Contains(string(b), "power-point") {
		t.Error(`metrics snapshot counts the power points twice (sweep="power-point")`)
	}
}

func TestMetricsDashWritesStdout(t *testing.T) {
	out, err := capture(t, options{only: "table1", packets: 100, format: "text", jobs: 1, metrics: "-"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `spacx_exp_points_total{sweep="table1"} 1`) {
		t.Errorf("-metrics - must write the exposition to stdout, got:\n%s", out)
	}
}
