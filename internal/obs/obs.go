// Package obs is the simulator-wide observability layer: a stdlib-only
// metrics registry (counters, gauges, fixed-bucket histograms, timers), a
// log/slog-based structured progress logger, and pprof profiling helpers.
//
// Instrumented packages accept a Recorder; the Nop recorder keeps the
// analytical hot path allocation-free when observability is off. Hot loops
// should guard label-bearing calls with Enabled():
//
//	if rec.Enabled() {
//		rec.Count("spacx_sim_flow_bytes_total", float64(b),
//			obs.Label{Key: "class", Value: cls})
//	}
//
// A Registry implements Recorder and can export its state as a Prometheus
// text-format page or as JSON (see WritePrometheus / WriteJSON).
package obs

import (
	"io"
	"log/slog"
)

// Label is one metric dimension. Labels are passed by value so that a call
// with no labels performs no allocation.
type Label struct {
	Key   string
	Value string
}

// Recorder is the instrumentation sink threaded through the simulator.
// Implementations must be safe for concurrent use.
type Recorder interface {
	// Enabled reports whether observations are being collected; hot loops
	// use it to skip label construction entirely.
	Enabled() bool
	// Count adds v (which should be non-negative) to a monotonic counter.
	Count(name string, v float64, labels ...Label)
	// Gauge sets a point-in-time value.
	Gauge(name string, v float64, labels ...Label)
	// Observe records one sample into a fixed-bucket histogram.
	Observe(name string, v float64, labels ...Label)
	// Time starts a timer; the returned stop function observes the elapsed
	// seconds into the named histogram.
	Time(name string, labels ...Label) func()
	// Logger returns the structured progress logger (never nil).
	Logger() *slog.Logger
}

// nop discards everything.
type nop struct{}

var nopStop = func() {}

func (nop) Enabled() bool                     { return false }
func (nop) Count(string, float64, ...Label)   {}
func (nop) Gauge(string, float64, ...Label)   {}
func (nop) Observe(string, float64, ...Label) {}
func (nop) Time(string, ...Label) func()      { return nopStop }
func (nop) Logger() *slog.Logger              { return discardLogger }

var discardLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{
	Level: slog.Level(127), // above every standard level: nothing passes
}))

// Nop returns the shared no-op recorder.
func Nop() Recorder { return nop{} }

// NewLogger returns a progress logger: a debug-level text logger on w when
// verbose, the discarding logger otherwise.
func NewLogger(w io.Writer, verbose bool) *slog.Logger {
	if !verbose {
		return discardLogger
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug}))
}
