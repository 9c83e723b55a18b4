// Package server is spacx-serve's HTTP surface: an embeddable stdlib-only
// server that exposes the in-process metrics registry (Prometheus text and
// JSON), health and readiness probes, the served points' progress, recent
// request and job traces, build info, and net/http/pprof, and mounts the /v1
// API on the same listener.
//
// Lifecycle: Start listens and serves immediately; when the service has
// drained, the caller runs DrainAndShutdown, which flips /readyz to 503 but
// keeps every endpoint serving until a final metrics scrape lands (or the
// linger window expires), so a scraper never loses the last sample.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"spacx/internal/buildinfo"
	"spacx/internal/exp/engine"
	"spacx/internal/obs"
	"spacx/internal/obs/tracing"
)

// Options wires the server to the process's observability state; every
// field is optional.
type Options struct {
	// Registry backs /metrics and /metrics.json.
	Registry *obs.Registry
	// Progress backs /progress (nil serves the zero status).
	Progress *engine.Progress
	// Traces backs /traces and /traces/{id} (nil serves 404s).
	Traces *tracing.Collector
	// WriteTimeout bounds each response write to a client; a reader slower
	// than this is disconnected rather than allowed to pin a handler
	// goroutine (<= 0 means 10s). Every data endpoint renders its full
	// body from a snapshot first, so no registry or progress lock is ever
	// held while bytes move to a slow client.
	WriteTimeout time.Duration
	// Mount, when non-nil, registers additional routes on the server's mux
	// before it starts serving — the hook spacx-serve uses to put its /v1
	// API on the same listener as /metrics, /readyz, and the drain
	// machinery.
	Mount func(mux *http.ServeMux)
}

// Server is a running observability endpoint.
type Server struct {
	opts Options
	lis  net.Listener
	srv  *http.Server
	done chan struct{}

	ready       atomic.Bool
	draining    atomic.Bool
	scraped     atomic.Bool  // a metrics scrape arrived while draining
	lastRequest atomic.Int64 // unix nanos of the last completed request
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves in a background
// goroutine. The server starts ready.
func Start(addr string, opts Options) (*Server, error) {
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = 10 * time.Second
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s := &Server{opts: opts, lis: lis, done: make(chan struct{})}
	s.ready.Store(true)
	s.lastRequest.Store(time.Now().UnixNano())
	s.srv = &http.Server{Handler: s.Handler()}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(lis) // Shutdown/Close report http.ErrServerClosed here
	}()
	return s, nil
}

// Addr is the bound listen address (resolves ":0" to the real port).
func (s *Server) Addr() string { return s.lis.Addr().String() }

// SetReady flips the /readyz probe.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Handler returns the full endpoint mux (also used directly by tests).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/version", s.handleVersion)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/traces/{id}", s.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if s.opts.Mount != nil {
		s.opts.Mount(mux)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(w, r)
		s.lastRequest.Store(time.Now().UnixNano())
		if s.draining.Load() && (r.URL.Path == "/metrics" || r.URL.Path == "/metrics.json") {
			s.scraped.Store(true)
		}
	})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `spacx observability endpoints:
  /metrics       Prometheus text exposition (0.0.4)
  /metrics.json  metrics snapshot as JSON
  /healthz       liveness (always 200 while serving)
  /readyz        readiness (503 while draining)
  /progress      served points per phase: totals, rate, ETA
  /version       build info: module version, go version, vcs revision
  /traces        recent request/job traces, newest first
  /traces/{id}   one trace as a span tree
  /debug/pprof/  net/http/pprof profiles
`)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() || s.draining.Load() {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.opts.Registry == nil {
		http.Error(w, "no metrics registry attached", http.StatusServiceUnavailable)
		return
	}
	s.writeBuffered(w, "text/plain; version=0.0.4; charset=utf-8", func(dst io.Writer) error {
		return s.opts.Registry.WritePrometheus(dst)
	})
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	if s.opts.Registry == nil {
		http.Error(w, "no metrics registry attached", http.StatusServiceUnavailable)
		return
	}
	s.writeBuffered(w, "application/json", s.opts.Registry.WriteJSON)
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, s.opts.Progress.Status()) // nil Progress yields the zero Status
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, buildinfo.Get())
}

func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	if s.opts.Traces == nil {
		http.Error(w, "no trace collector attached", http.StatusNotFound)
		return
	}
	s.writeJSON(w, s.opts.Traces.List())
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.opts.Traces == nil {
		http.Error(w, "no trace collector attached", http.StatusNotFound)
		return
	}
	td, ok := s.opts.Traces.Trace(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such trace", http.StatusNotFound)
		return
	}
	s.writeJSON(w, td)
}

// writeBuffered renders the full body into memory from a point-in-time
// snapshot, then writes it to the client under WriteTimeout. Rendering never
// overlaps the client write, so a slow reader stalls only its own (deadline-
// bounded) connection, never a registry or progress lock.
func (s *Server) writeBuffered(w http.ResponseWriter, contentType string, render func(io.Writer) error) {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout)) // best effort: recorders don't support deadlines
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	s.writeBuffered(w, "application/json", func(dst io.Writer) error {
		enc := json.NewEncoder(dst)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// DrainAndShutdown marks the server not-ready and keeps serving until a
// metrics scrape arrives during the drain (followed by settle of request
// quiet, so trailing /progress or /traces reads complete) or linger expires,
// then shuts down gracefully. A linger <= 0 shuts down immediately.
func (s *Server) DrainAndShutdown(linger, settle time.Duration) error {
	s.draining.Store(true)
	s.ready.Store(false)
	if linger > 0 {
		deadline := time.Now().Add(linger)
		for time.Now().Before(deadline) {
			quietFor := time.Since(time.Unix(0, s.lastRequest.Load()))
			if s.scraped.Load() && quietFor >= settle {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return s.Close()
}

// Close shuts the server down, allowing in-flight requests two seconds to
// complete before closing their connections.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		err = s.srv.Close()
	}
	<-s.done
	return err
}
