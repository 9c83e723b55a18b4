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
// The -only values, their render order and the CSV-capable set come from
// report.Sections, which renders the drivers of exp.Artifacts: -h lists the
// values, and -format csv on a text-only section, or without -only, fails
// before anything runs, listing the values that have CSV.
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
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
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

func main() {
	var o options
	flag.StringVar(&o.only, "only", "", "render one artifact: "+onlyValues(false))
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

func run(o options) error {
	// Validate every enum flag before running any experiment so a typo
	// fails fast instead of after minutes of simulation.
	if o.format != "text" && o.format != "csv" {
		return fmt.Errorf("unknown format %q (text, csv)", o.format)
	}
	sections, err := pick(o.only, o.format)
	if err != nil {
		return err
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

	renderErr := render(os.Stdout, sections, o.format == "csv", o.packets)
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

// pick returns the sections -only selects (every one when it is empty) and
// checks -format against them, so that a bad pair fails before any side
// effect.
func pick(only, format string) ([]report.Section, error) {
	sections := report.Sections
	if only != "" {
		i := slices.IndexFunc(sections, func(s report.Section) bool { return slices.Contains(s.Names, only) })
		if i < 0 {
			return nil, fmt.Errorf("unknown artifact %q (%s)", only, onlyValues(false))
		}
		sections = sections[i : i+1]
	}
	if format == "csv" && (only == "" || sections[0].CSV == nil) {
		return nil, fmt.Errorf("-format csv needs -only set to one of %s; got %q", onlyValues(true), only)
	}
	return sections, nil
}

// onlyValues lists the -only values in render order: every section's
// names, or with csv only those of the sections that have a CSV renderer.
func onlyValues(csv bool) string {
	var names []string
	for _, s := range report.Sections {
		if !csv || s.CSV != nil {
			names = append(names, s.Names...)
		}
	}
	return strings.Join(names, ", ")
}

// render evaluates each section's drivers and writes the section: as CSV,
// or as text followed by a separator line.
func render(w io.Writer, sections []report.Section, csv bool, packets int) error {
	for _, s := range sections {
		rows, err := s.Evaluate(packets)
		if err != nil {
			return err
		}
		if csv {
			if err := s.CSV(w, rows); err != nil {
				return err
			}
			continue
		}
		s.Text(w, rows)
		fmt.Fprintln(w, strings.Repeat("-", 88))
	}
	return nil
}
