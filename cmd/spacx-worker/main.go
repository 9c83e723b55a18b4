// Command spacx-worker is one member of a distributed sweep fleet: it
// registers with a spacx-serve coordinator (started with -fabric), pulls
// leased batches of sweep points over the /fabric/v1/ wire protocol,
// computes them through its own local simulation core — the same response
// LRU and micro-batching engine the server uses, kept hot per shard by the
// coordinator's consistent-hash routing — and uploads the outcomes. Results
// are byte-identical to a local run by construction.
//
// Usage:
//
//	spacx-worker -coordinator http://127.0.0.1:8080
//	spacx-worker -coordinator http://127.0.0.1:8080 -name rack2 -j 8 -http 127.0.0.1:9090
//
// Lifecycle: runs until SIGINT/SIGTERM (in-flight batches are cancelled;
// finished points are still uploaded) or until the coordinator tells it to
// drain, then exits 0.
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

	"spacx/internal/buildinfo"
	"spacx/internal/obs"
	"spacx/internal/obs/flightrec"
	"spacx/internal/obs/server"
	"spacx/internal/obs/tracing"
	"spacx/internal/serve"
	"spacx/internal/worker"
)

type options struct {
	coordinator string
	name        string
	jobs        int
	maxPoints   int
	poll        time.Duration
	retry       time.Duration
	cache       int
	httpAddr    string
	traceKeep   int
	flightRec   int
	flightDump  string
	verbose     bool
	version     bool
}

func main() {
	var o options
	flag.StringVar(&o.coordinator, "coordinator", "", "coordinator base URL, e.g. http://127.0.0.1:8080 (required)")
	flag.StringVar(&o.name, "name", "", "operator-facing worker label (default: the hostname)")
	flag.IntVar(&o.jobs, "j", runtime.NumCPU(), "simulation workers per leased batch")
	flag.IntVar(&o.maxPoints, "max-points", 0, "most points requested per lease (0 = coordinator default)")
	flag.DurationVar(&o.poll, "poll", 5*time.Second, "lease long-poll window")
	flag.DurationVar(&o.retry, "retry", time.Second, "backoff after transport errors")
	flag.IntVar(&o.cache, "cache", 512, "response cache capacity (entries)")
	flag.StringVar(&o.httpAddr, "http", "", "also serve /metrics, /progress, and /traces on this address (off by default)")
	flag.IntVar(&o.traceKeep, "traces", 256, "recent compute traces retained for /traces")
	flag.IntVar(&o.flightRec, "flightrec", 0, "worker-side flight-recorder ring capacity (0 disables)")
	flag.StringVar(&o.flightDump, "flightrec-dump", "", "write the flight-recorder events to this JSONL file at exit")
	flag.BoolVar(&o.verbose, "v", false, "log structured progress to stderr")
	flag.BoolVar(&o.version, "version", false, "print build info and exit")
	flag.Parse()

	if o.version {
		fmt.Println(buildinfo.Get().String())
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "spacx-worker:", err)
		os.Exit(1)
	}
}

func validate(o options) error {
	if o.coordinator == "" {
		return fmt.Errorf("-coordinator is required")
	}
	if o.jobs < 1 {
		return fmt.Errorf("-j must be >= 1, got %d", o.jobs)
	}
	if o.maxPoints < 0 {
		return fmt.Errorf("-max-points must be >= 0, got %d", o.maxPoints)
	}
	if o.poll <= 0 {
		return fmt.Errorf("-poll must be > 0, got %v", o.poll)
	}
	if o.retry <= 0 {
		return fmt.Errorf("-retry must be > 0, got %v", o.retry)
	}
	if o.cache < 1 {
		return fmt.Errorf("-cache must be >= 1, got %d", o.cache)
	}
	if o.traceKeep < 1 {
		return fmt.Errorf("-traces must be >= 1, got %d", o.traceKeep)
	}
	if o.flightRec < 0 {
		return fmt.Errorf("-flightrec must be >= 0, got %d", o.flightRec)
	}
	return nil
}

func run(o options) error {
	if err := validate(o); err != nil {
		return err
	}
	if o.name == "" {
		o.name, _ = os.Hostname()
	}

	reg := obs.NewRegistry(obs.NewLogger(os.Stderr, o.verbose))
	traces := tracing.NewCollector(o.traceKeep, reg)
	var flight *flightrec.Recorder
	if o.flightRec > 0 {
		flight = flightrec.New(o.flightRec)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The local compute core: identical machinery to the server's, so a
	// leased point takes exactly the path (and produces exactly the bytes) it
	// would have locally.
	svc := serve.New(serve.Options{
		Workers:      o.jobs,
		MaxBatch:     o.jobs,
		CacheEntries: o.cache,
		Recorder:     reg,
		Traces:       traces,
	})
	svc.Start(ctx)
	defer svc.Close()

	w, err := worker.New(worker.Options{
		URL:       o.coordinator,
		Name:      o.name,
		Compute:   svc.ComputePoint,
		Jobs:      o.jobs,
		MaxPoints: o.maxPoints,
		Poll:      o.poll,
		Retry:     o.retry,
		Recorder:  reg,
		Traces:    traces,
		Metrics:   reg,
		Flight:    flight,
	})
	if err != nil {
		return err
	}

	var srv *server.Server
	if o.httpAddr != "" {
		srv, err = server.Start(o.httpAddr, server.Options{
			Registry: reg,
			Traces:   traces,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spacx-worker: observability on http://%s/metrics\n", srv.Addr())
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "spacx-worker: received %s, stopping\n", sig)
		cancel()
	}()

	fmt.Fprintf(os.Stderr, "spacx-worker: joining fleet at %s\n", o.coordinator)
	err = w.Run(ctx)
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	if srv != nil {
		_ = srv.DrainAndShutdown(0, 100*time.Millisecond)
	}
	if o.flightDump != "" && flight != nil {
		if f, ferr := os.Create(o.flightDump); ferr != nil {
			fmt.Fprintf(os.Stderr, "spacx-worker: flightrec dump: %v\n", ferr)
		} else {
			if werr := flight.WriteJSONL(f); werr != nil {
				fmt.Fprintf(os.Stderr, "spacx-worker: flightrec dump: %v\n", werr)
			}
			_ = f.Close()
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "spacx-worker: done")
	return nil
}
