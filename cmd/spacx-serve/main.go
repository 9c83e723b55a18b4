// Command spacx-serve runs the simulator as a long-lived service: a
// stdlib-only HTTP API answering accelerator × model × mode × batch
// what-if queries from a shared simulation core with request coalescing,
// fingerprint-keyed result caching, a fixed pool of simulation workers,
// and bounded-queue backpressure.
//
// Usage:
//
//	spacx-serve -http 127.0.0.1:8080
//	spacx-serve -http 127.0.0.1:8080 -j 8 -queue 128
//
// Endpoints (see README.md "Serving" and "Jobs & Tracing"):
//
//	POST   /v1/simulate         one simulation query
//	POST   /v1/sweep            a small parameter grid, synchronous
//	POST   /v1/thermal          closed-loop thermal replay of a traffic profile
//	POST   /v1/jobs             submit a sweep as an async job (202 + id)
//	GET    /v1/jobs             job list, newest first
//	GET    /v1/jobs/{id}        job status + result once done
//	DELETE /v1/jobs/{id}        cancel a running job
//	GET    /v1/jobs/{id}/events SSE progress stream (points done, rate, ETA)
//	GET    /v1/models           servable model catalog
//	GET    /v1/accelerators     servable accelerator catalog
//	GET    /metrics             service + simulator metrics
//	GET    /traces, /traces/{id} request/job span trees (X-Spacx-Trace ids)
//	GET    /version             build info
//	GET    /readyz              readiness (503 once draining)
//
// Lifecycle: SIGINT/SIGTERM flips /readyz to 503, stops admitting new
// simulations (503 + Retry-After), drains every queued job to completion,
// lingers -http-linger for a final metrics scrape, then exits. A second
// signal abandons unstarted work and exits promptly.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"spacx/internal/buildinfo"
	"spacx/internal/exp"
	"spacx/internal/exp/engine"
	"spacx/internal/obs"
	"spacx/internal/obs/server"
	"spacx/internal/obs/tracing"
	"spacx/internal/serve"
	"spacx/internal/serve/jobs"
)

type options struct {
	httpAddr   string
	jobs       int
	queue      int
	cache      int
	maxReqBat  int
	sweepCap   int
	retryAfter time.Duration
	linger     time.Duration
	jobsKeep   int
	maxJobs    int
	traceKeep  int

	verbose bool
	version bool
}

func main() {
	var o options
	flag.StringVar(&o.httpAddr, "http", "127.0.0.1:8080", "serve the API and observability endpoints on this address")
	flag.IntVar(&o.jobs, "j", runtime.NumCPU(), "simulation workers reading the admission queue")
	flag.IntVar(&o.queue, "queue", 64, "admission queue depth; beyond it requests get 429")
	flag.IntVar(&o.cache, "cache", 512, "response cache capacity (entries)")
	flag.IntVar(&o.maxReqBat, "max-request-batch", 256, "largest accepted per-request batch size")
	flag.IntVar(&o.sweepCap, "sweep-points", 64, "largest accepted /v1/sweep grid")
	flag.DurationVar(&o.retryAfter, "retry-after", time.Second, "Retry-After hint on 429/503 responses")
	flag.DurationVar(&o.linger, "http-linger", 2*time.Second, "keep serving this long after drain for a final metrics scrape")
	flag.IntVar(&o.jobsKeep, "jobs-keep", 64, "terminal async jobs retained in memory")
	flag.IntVar(&o.maxJobs, "max-jobs", 8, "concurrently live async jobs; beyond it submissions get 429")
	flag.IntVar(&o.traceKeep, "traces", 256, "recent request/job traces retained for /traces")
	flag.BoolVar(&o.verbose, "v", false, "log structured request progress to stderr")
	flag.BoolVar(&o.version, "version", false, "print build info and exit")
	flag.Parse()

	if o.version {
		fmt.Println(buildinfo.Get().String())
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "spacx-serve:", err)
		os.Exit(1)
	}
}

func validate(o options) error {
	if o.jobs < 1 {
		return fmt.Errorf("-j must be >= 1, got %d", o.jobs)
	}
	if o.queue < 1 {
		return fmt.Errorf("-queue must be >= 1, got %d", o.queue)
	}
	if o.cache < 1 {
		return fmt.Errorf("-cache must be >= 1, got %d", o.cache)
	}
	if o.maxReqBat < 1 {
		return fmt.Errorf("-max-request-batch must be >= 1, got %d", o.maxReqBat)
	}
	if o.sweepCap < 1 {
		return fmt.Errorf("-sweep-points must be >= 1, got %d", o.sweepCap)
	}
	if o.retryAfter <= 0 {
		return fmt.Errorf("-retry-after must be > 0, got %v", o.retryAfter)
	}
	if o.linger < 0 {
		return fmt.Errorf("-http-linger must be >= 0, got %v", o.linger)
	}
	if o.jobsKeep < 1 {
		return fmt.Errorf("-jobs-keep must be >= 1, got %d", o.jobsKeep)
	}
	if o.maxJobs < 1 {
		return fmt.Errorf("-max-jobs must be >= 1, got %d", o.maxJobs)
	}
	if o.traceKeep < 1 {
		return fmt.Errorf("-traces must be >= 1, got %d", o.traceKeep)
	}
	return nil
}

func run(o options) error {
	if err := validate(o); err != nil {
		return err
	}

	reg := obs.NewRegistry(obs.NewLogger(os.Stderr, o.verbose))
	prog := engine.NewProgress()
	traces := tracing.NewCollector(o.traceKeep, reg)
	// /v1/thermal runs through the experiment drivers, whose spacx_thermal_*
	// gauges land on the package recorder; point it at the registry so they
	// show up on /metrics alongside the serve metrics.
	exp.SetRecorder(reg)

	// hardCtx is the second-signal abort: cancelling it fails the queued
	// queries no worker has started.
	hardCtx, hardCancel := context.WithCancel(context.Background())
	defer hardCancel()

	svc := serve.New(serve.Options{
		Workers:         o.jobs,
		QueueDepth:      o.queue,
		CacheEntries:    o.cache,
		MaxRequestBatch: o.maxReqBat,
		MaxSweepPoints:  o.sweepCap,
		RetryAfter:      o.retryAfter,
		Recorder:        reg,
		Progress:        prog,
		Traces:          traces,
	})
	svc.Start(hardCtx)

	mgr, err := jobs.NewManager(jobs.Options{
		Prepare: func(body []byte) (jobs.SweepRun, error) {
			sr, err := svc.PrepareSweep(body)
			if err != nil {
				return nil, err
			}
			return sr, nil
		},
		Keep:     o.jobsKeep,
		MaxLive:  o.maxJobs,
		Recorder: reg,
		Traces:   traces,
	})
	if err != nil {
		return fmt.Errorf("jobs manager: %w", err)
	}

	srv, err := server.Start(o.httpAddr, server.Options{
		Registry: reg,
		Progress: prog,
		Traces:   traces,
		Mount: func(mux *http.ServeMux) {
			svc.Routes(mux)
			mgr.Routes(mux, svc.Instrument)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spacx-serve: serving http://%s/v1/ (metrics on /metrics)\n", srv.Addr())

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	sig := <-sigs
	fmt.Fprintf(os.Stderr, "spacx-serve: received %s, draining (again to abort)\n", sig)

	// Graceful half: stop advertising readiness, refuse new simulations,
	// finish what is queued. A second signal during the drain hard-cancels.
	// Jobs close first — cancelling them (they end failed-by-shutdown) stops
	// them feeding the admission queue the drain empties.
	srv.SetReady(false)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "spacx-serve: received %s, abandoning queued work\n", s)
		hardCancel()
	}()
	mgr.Close()
	svc.Close()

	// Keep /metrics up for a final scrape, then exit.
	return srv.DrainAndShutdown(o.linger, 200*time.Millisecond)
}
