// Command spacx-sweep runs the design-space sweeps: the broadcast
// granularity power surfaces of Figures 19/20 and the scalability study of
// Figure 22.
//
// Usage:
//
//	spacx-sweep -sweep power -params moderate
//	spacx-sweep -sweep power -params aggressive -m 64 -n 64
//	spacx-sweep -sweep scale -v -metrics /tmp/sweep.prom
//	spacx-sweep -sweep scale -j 1
//
// Parallelism: -j N sets the worker count for the experiment engine's fan-out
// over independent sweep points (default: all CPUs). Results are bit-for-bit
// identical at any worker count.
//
// Observability: -v logs a structured progress line per sweep point to
// stderr; -metrics writes per-point counters and duration histograms
// (Prometheus text format, JSON when the path ends in .json, or stdout when
// the path is "-"); -cpuprofile/-memprofile write runtime/pprof profiles.
//
// Live observability: -http addr serves /metrics, /progress, /runs,
// /healthz, and /debug/pprof/ during the sweep (lingering -http-linger for a
// final scrape); -progress prints a stderr progress ticker; -ledger path
// appends one JSON run record per invocation and -regress ratio compares it
// against the previous record.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"spacx"
	"spacx/internal/buildinfo"
	"spacx/internal/exp"
	"spacx/internal/exp/engine"
	"spacx/internal/obs"
	"spacx/internal/obs/ledger"
	"spacx/internal/obs/server"
	"spacx/internal/report"
)

type options struct {
	sweep  string
	params string
	m, n   int
	jobs   int

	metrics    string
	cpuProfile string
	memProfile string
	verbose    bool

	httpAddr   string
	httpLinger time.Duration
	ledgerPath string
	ledgerKeep int
	progress   bool
	regress    float64
	version    bool
}

func main() {
	var o options
	flag.StringVar(&o.sweep, "sweep", "power", "sweep kind: power (Figs 19/20) or scale (Fig 22)")
	flag.StringVar(&o.params, "params", "moderate", "photonic parameters: moderate or aggressive")
	flag.IntVar(&o.m, "m", 32, "chiplet count for the power sweep")
	flag.IntVar(&o.n, "n", 32, "PEs per chiplet for the power sweep")
	flag.IntVar(&o.jobs, "j", runtime.NumCPU(), "number of parallel simulation workers")
	flag.StringVar(&o.metrics, "metrics", "", "write a metrics snapshot to this path (Prometheus text format; .json extension switches to JSON)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this path")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this path on exit")
	flag.BoolVar(&o.verbose, "v", false, "log structured per-point progress to stderr")
	flag.StringVar(&o.httpAddr, "http", "", "serve live observability endpoints on this address (e.g. 127.0.0.1:9090)")
	flag.DurationVar(&o.httpLinger, "http-linger", 2*time.Second, "keep the -http server up this long after the run for a final scrape")
	flag.StringVar(&o.ledgerPath, "ledger", "", "append a JSON run record to this file (e.g. runs.jsonl)")
	flag.IntVar(&o.ledgerKeep, "ledger-keep", 0, "on startup, prune the -ledger file to its newest N records, dropping schema-mismatched lines (0 disables)")
	flag.BoolVar(&o.progress, "progress", false, "print a live progress line to stderr every second")
	flag.Float64Var(&o.regress, "regress", 0, "report drivers slower than this ratio vs the previous -ledger record (0 disables)")
	flag.BoolVar(&o.version, "version", false, "print build info and exit")
	flag.Parse()

	if o.version {
		fmt.Println(buildinfo.Get().String())
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "spacx-sweep:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	// Validate every enum flag before sweeping so a typo fails fast.
	if o.sweep != "power" && o.sweep != "scale" {
		return fmt.Errorf("unknown sweep %q (power, scale)", o.sweep)
	}
	var p spacx.PhotonicParams
	switch o.params {
	case "moderate":
		p = spacx.ModerateParams()
	case "aggressive":
		p = spacx.AggressiveParams()
	default:
		return fmt.Errorf("unknown params %q (moderate, aggressive)", o.params)
	}
	if o.sweep == "power" && (o.m < 1 || o.n < 1) {
		return fmt.Errorf("machine size must be positive, got M=%d N=%d", o.m, o.n)
	}
	if o.jobs < 1 {
		return fmt.Errorf("-j must be >= 1, got %d", o.jobs)
	}
	if o.httpLinger < 0 {
		return fmt.Errorf("-http-linger must be >= 0, got %v", o.httpLinger)
	}
	if o.regress < 0 {
		return fmt.Errorf("-regress must be >= 0, got %v", o.regress)
	}
	if o.regress > 0 && o.ledgerPath == "" {
		return fmt.Errorf("-regress needs -ledger to compare against")
	}
	if o.ledgerKeep < 0 {
		return fmt.Errorf("-ledger-keep must be >= 0, got %d", o.ledgerKeep)
	}
	if o.ledgerKeep > 0 && o.ledgerPath == "" {
		return fmt.Errorf("-ledger-keep needs -ledger to prune")
	}
	if o.ledgerKeep > 0 {
		kept, dropped, err := ledger.Prune(o.ledgerPath, ledger.SchemaVersion, o.ledgerKeep)
		if err != nil {
			return fmt.Errorf("prune ledger: %w", err)
		}
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "spacx-sweep: ledger pruned to %d records (%d dropped)\n", kept, dropped)
		}
	}
	exp.SetParallelism(o.jobs)

	// SIGINT/SIGTERM cancels the sweep: in-flight points are abandoned at
	// the engine's next claim, and whatever was collected still flushes to
	// -metrics and -ledger below.
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
			fmt.Fprintln(os.Stderr, "spacx-sweep:", err)
		}
	}()

	var reg *obs.Registry
	if o.metrics != "" || o.verbose || o.httpAddr != "" || o.ledgerPath != "" {
		reg = obs.NewRegistry(obs.NewLogger(os.Stderr, o.verbose))
		exp.SetRecorder(reg)
		defer exp.SetRecorder(nil)
	}
	var prog *engine.Progress
	if o.httpAddr != "" || o.ledgerPath != "" || o.progress {
		prog = engine.NewProgress()
		exp.SetProgress(prog)
		defer exp.SetProgress(nil)
	}

	var srv *server.Server
	if o.httpAddr != "" {
		srv, err = server.Start(o.httpAddr, server.Options{
			Registry: reg,
			Progress: prog,
			Runs: func() ([]ledger.Record, error) {
				if o.ledgerPath == "" {
					return nil, nil
				}
				return ledger.Read(o.ledgerPath)
			},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "observability: serving http://%s/ (metrics, progress, runs, pprof)\n", srv.Addr())
	}
	var sampler *ledger.Sampler
	if o.ledgerPath != "" {
		sampler = ledger.StartSampler(0)
	}
	stopTicker := func() {}
	if o.progress {
		stopTicker = prog.StartTicker(os.Stderr, time.Second)
	}

	var sweepErr error
	switch o.sweep {
	case "power":
		var pts []spacx.PowerPoint
		pts, sweepErr = exp.PowerSweep(o.m, o.n, p)
		if sweepErr == nil {
			report.PowerSurface(os.Stdout,
				fmt.Sprintf("SPACX network power surface, M=%d N=%d, %s parameters", o.m, o.n, p.Name), pts)
		}
	case "scale":
		var rows []exp.Fig22Row
		rows, sweepErr = exp.Fig22()
		if sweepErr == nil {
			report.Fig22(os.Stdout, rows)
		}
	}
	stopTicker()
	interrupted := errors.Is(sweepErr, context.Canceled)
	if sweepErr != nil && !interrupted {
		return sweepErr
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "spacx-sweep: interrupted; flushing metrics and ledger")
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
	if o.ledgerPath != "" {
		rec := ledger.New("spacx-sweep", o.sweep, o.jobs)
		rec.FillProgress(prog.Status())
		rec.FillSnapshot(reg.Snapshot())
		rec.PeakGoroutines, rec.PeakHeapBytes = sampler.Stop()
		if o.regress > 0 {
			prev, ok, err := ledger.Last(o.ledgerPath)
			if err != nil {
				return err
			}
			if ok {
				fmt.Fprint(os.Stderr, ledger.Compare(prev, rec, o.regress).String())
			}
		}
		if err := ledger.Append(o.ledgerPath, rec); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "run recorded to %s\n", o.ledgerPath)
	}
	if srv != nil {
		// Keep serving the completed /progress, /runs, and final metrics
		// until a scraper collects them or the linger window closes.
		if err := srv.DrainAndShutdown(o.httpLinger, 200*time.Millisecond); err != nil {
			fmt.Fprintln(os.Stderr, "spacx-sweep: observability server:", err)
		}
	}
	if interrupted {
		return sweepErr
	}
	return nil
}
