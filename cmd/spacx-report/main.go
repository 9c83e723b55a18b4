// Command spacx-report regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md's experiment index) as text, including
// the design-space sweeps: the granularity power surfaces (fig19, fig20)
// and the scalability study (fig22). A power surface at another machine
// size is spacx.PowerSurface(m, n, params).
//
// Usage:
//
//	spacx-report                # everything
//	spacx-report -only fig15    # one artifact
//	spacx-report -only fig22 -format csv
//	spacx-report -only fig16 -v -metrics /tmp/report.prom
//	spacx-report -j 1           # force sequential evaluation
//
// Parallelism: -j N sets the worker count for the experiment engine's fan-out
// over independent simulation points (default: all CPUs). Results are
// bit-for-bit identical at any worker count.
//
// Observability: -v logs a structured progress line per experiment point to
// stderr; -metrics writes the accumulated counters and histograms (Prometheus
// text format, JSON when the path ends in .json, or stdout when the path is
// "-"), including each driver's point timings
// (spacx_exp_point_seconds{sweep}); -cpuprofile and -memprofile write
// runtime/pprof profiles. SIGINT or SIGTERM stops the run and still flushes
// -metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"spacx/internal/buildinfo"
	"spacx/internal/exp"
	"spacx/internal/obs"
	"spacx/internal/report"
)

type options struct {
	only    string
	packets int
	format  string
	jobs    int

	metrics    string
	cpuProfile string
	memProfile string
	verbose    bool
	version    bool
}

// artifacts is the set of -only values, in render order.
var artifacts = []string{
	"table1", "table2", "table34",
	"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
	"fig21", "fig22",
	"ablation", "tradeoff", "adaptive", "batch", "engines", "area",
}

func main() {
	var o options
	flag.StringVar(&o.only, "only", "", "render one artifact: "+strings.Join(artifacts, ", "))
	flag.IntVar(&o.packets, "fig16-packets", 20000, "packets per fig16 event-simulation run")
	flag.StringVar(&o.format, "format", "text", "output format: text or csv (csv requires -only)")
	flag.IntVar(&o.jobs, "j", runtime.NumCPU(), "number of parallel simulation workers")
	flag.StringVar(&o.metrics, "metrics", "", "write a metrics snapshot to this path (Prometheus text format; .json extension switches to JSON)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this path")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this path on exit")
	flag.BoolVar(&o.verbose, "v", false, "log structured per-point progress to stderr")
	flag.BoolVar(&o.version, "version", false, "print build info and exit")
	flag.Parse()
	o.only = strings.ToLower(o.only)

	if o.version {
		fmt.Println(buildinfo.Get().String())
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "spacx-report:", err)
		os.Exit(1)
	}
}

func validOnly(only string) bool {
	if only == "" {
		return true
	}
	for _, a := range artifacts {
		if only == a {
			return true
		}
	}
	return false
}

func run(o options) error {
	// Validate every enum flag before running any experiment so a typo
	// fails fast instead of after minutes of simulation.
	if o.format != "text" && o.format != "csv" {
		return fmt.Errorf("unknown format %q (text, csv)", o.format)
	}
	if !validOnly(o.only) {
		return fmt.Errorf("unknown artifact %q (%s)", o.only, strings.Join(artifacts, ", "))
	}
	if o.packets < 1 {
		return fmt.Errorf("fig16-packets must be >= 1, got %d", o.packets)
	}
	if o.jobs < 1 {
		return fmt.Errorf("-j must be >= 1, got %d", o.jobs)
	}
	exp.SetParallelism(o.jobs)

	// SIGINT/SIGTERM cancels the sweep: in-flight points are abandoned at
	// the engine's next claim, and whatever was collected still flushes to
	// -metrics below.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	exp.SetContext(ctx)
	defer exp.SetContext(nil)

	stopProfiles, err := obs.StartProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "spacx-report:", err)
		}
	}()

	var reg *obs.Registry
	if o.metrics != "" || o.verbose {
		reg = obs.NewRegistry(obs.NewLogger(os.Stderr, o.verbose))
		exp.SetRecorder(reg)
		defer exp.SetRecorder(nil)
	}

	var renderErr error
	if o.format == "csv" {
		renderErr = runCSV(os.Stdout, o.only, o.packets)
	} else {
		renderErr = runText(os.Stdout, o.only, o.packets)
	}
	interrupted := errors.Is(renderErr, context.Canceled)
	if renderErr != nil && !interrupted {
		return renderErr
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "spacx-report: interrupted; flushing metrics")
	}

	if o.verbose {
		reg.LogSummary()
	}
	if o.metrics != "" {
		if err := reg.WriteFile(o.metrics); err != nil {
			return err
		}
		if o.metrics != "-" {
			fmt.Fprintf(os.Stderr, "metrics written to %s\n", o.metrics)
		}
	}
	if interrupted {
		return renderErr
	}
	return nil
}

func runText(w *os.File, only string, packets int) error {
	want := func(name string) bool { return only == "" || only == name }
	sep := func() { fmt.Fprintln(w, strings.Repeat("-", 88)) }

	if want("table1") {
		rows, err := exp.Table1()
		if err != nil {
			return err
		}
		report.Table1(w, rows)
		sep()
	}
	if want("table2") {
		report.Table2(w, exp.Table2())
		sep()
	}
	if want("table34") {
		rows, err := exp.Table3And4()
		if err != nil {
			return err
		}
		report.Table3And4(w, rows)
		sep()
	}
	if want("fig13") || want("fig14") {
		rows, err := exp.Fig13And14()
		if err != nil {
			return err
		}
		report.PerLayer(w, rows)
		sep()
	}
	if want("fig15") {
		rows, err := exp.Fig15()
		if err != nil {
			return err
		}
		report.Overall(w, "Figure 15 — whole-inference execution time and energy (normalized to Simba)", rows)
		sep()
	}
	if want("fig16") {
		rows, err := exp.Fig16(packets)
		if err != nil {
			return err
		}
		report.Fig16(w, rows)
		sep()
	}
	if want("fig17") {
		rows, err := exp.Fig17()
		if err != nil {
			return err
		}
		report.Overall(w, "Figure 17 — dataflows on the SPACX architecture (normalized to WS)", rows)
		sep()
	}
	if want("fig18") {
		rows, err := exp.Fig18()
		if err != nil {
			return err
		}
		report.Overall(w, "Figure 18 — bandwidth allocation on/off (normalized to Simba)", rows)
		sep()
	}
	if want("fig19") {
		pts, err := exp.Fig19()
		if err != nil {
			return err
		}
		report.PowerSurface(w, "Figure 19 — SPACX network power, moderate parameters", pts)
		sep()
	}
	if want("fig20") {
		pts, err := exp.Fig20()
		if err != nil {
			return err
		}
		report.PowerSurface(w, "Figure 20 — SPACX network power, aggressive parameters", pts)
		sep()
	}
	if want("fig21") {
		a, err := exp.Fig21a()
		if err != nil {
			return err
		}
		b, err := exp.Fig21bBreakdown()
		if err != nil {
			return err
		}
		report.Fig21(w, a, b)
		sep()
	}
	if want("fig22") {
		rows, err := exp.Fig22()
		if err != nil {
			return err
		}
		report.Fig22(w, rows)
		sep()
	}
	if want("ablation") {
		rows, err := exp.AblationBroadcast()
		if err != nil {
			return err
		}
		report.Ablation(w, rows)
		sep()
	}
	if want("tradeoff") {
		rows, err := exp.GranularityTradeoff()
		if err != nil {
			return err
		}
		report.GranularityTradeoff(w, rows)
		sep()
	}
	if want("adaptive") {
		rows, err := exp.AdaptiveGranularity()
		if err != nil {
			return err
		}
		report.Adaptive(w, rows)
		sep()
	}
	if want("batch") {
		rows, err := exp.BatchScaling()
		if err != nil {
			return err
		}
		report.BatchScaling(w, rows)
		sep()
	}
	if want("engines") {
		rows, err := exp.EngineAgreement()
		if err != nil {
			return err
		}
		report.Engines(w, rows)
		sep()
	}
	if want("area") {
		r, err := exp.Area()
		if err != nil {
			return err
		}
		report.Area(w, r)
		sep()
	}
	return nil
}

// runCSV emits a single artifact as CSV for downstream plotting.
func runCSV(w *os.File, only string, packets int) error {
	switch only {
	case "fig13", "fig14":
		rows, err := exp.Fig13And14()
		if err != nil {
			return err
		}
		return report.PerLayerCSV(w, rows)
	case "fig15":
		rows, err := exp.Fig15()
		if err != nil {
			return err
		}
		return report.OverallCSV(w, rows)
	case "fig16":
		rows, err := exp.Fig16(packets)
		if err != nil {
			return err
		}
		return report.Fig16CSV(w, rows)
	case "fig17":
		rows, err := exp.Fig17()
		if err != nil {
			return err
		}
		return report.OverallCSV(w, rows)
	case "fig18":
		rows, err := exp.Fig18()
		if err != nil {
			return err
		}
		return report.OverallCSV(w, rows)
	case "fig19":
		pts, err := exp.Fig19()
		if err != nil {
			return err
		}
		return report.PowerSurfaceCSV(w, pts)
	case "fig20":
		pts, err := exp.Fig20()
		if err != nil {
			return err
		}
		return report.PowerSurfaceCSV(w, pts)
	case "fig22":
		rows, err := exp.Fig22()
		if err != nil {
			return err
		}
		return report.Fig22CSV(w, rows)
	default:
		return fmt.Errorf("csv format supports fig13..fig20, fig22; got %q", only)
	}
}
