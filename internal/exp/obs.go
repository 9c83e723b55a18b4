package exp

import (
	"context"

	"spacx/internal/exp/engine"
	"spacx/internal/obs"
)

// recorder is the package-wide observability sink. Experiment drivers log
// sweep progress and record per-point durations through it; the default
// no-op keeps the drivers silent and allocation-free in benchmarks.
var recorder obs.Recorder = obs.Nop()

// SetRecorder installs the recorder used by every driver in this package
// (nil restores the no-op). It is not safe to call concurrently with a
// running driver; CLIs set it once at startup.
func SetRecorder(rec obs.Recorder) {
	if rec == nil {
		rec = obs.Nop()
	}
	recorder = rec
}

// baseCtx is the context every driver fan-out runs under. The default
// Background context never cancels, so untracked runs behave exactly as
// before contexts existed.
var baseCtx = context.Background()

// SetContext installs the cancellation context threaded into every driver's
// engine fan-out (nil restores context.Background). Cancelling it abandons
// sweep points that have not started — claimed points run to completion, so
// partial results and metrics stay internally consistent. Like SetRecorder,
// it is not safe to call concurrently with a running driver; CLIs set it
// once at startup from their signal context.
func SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	baseCtx = ctx
}

// mapPoints fans a driver's n independent points across the worker pool,
// counting each one into spacx_exp_points_total and timing it into the
// spacx_exp_point_seconds histogram under the driver's sweep label. Every
// driver funnels its grid through here, so a recorder's per-sweep series
// cover the whole run regardless of which artifacts were selected.
func mapPoints[T any](sweep string, n int, fn func(i int) (T, error)) ([]T, error) {
	lbl := obs.Label{Key: "sweep", Value: sweep}
	return engine.Map(baseCtx, parallelism, n, func(i int) (T, error) {
		stop := recorder.Time("spacx_exp_point_seconds", lbl)
		v, err := fn(i)
		stop()
		recorder.Count("spacx_exp_points_total", 1, lbl)
		if err != nil {
			recorder.Logger().Error(sweep+" point failed", "index", i, "err", err)
		}
		return v, err
	})
}

// track wraps a single-shot driver (the tables, the area estimate) as a
// one-point sweep so its wall time lands in spacx_exp_point_seconds
// alongside the fanned-out figures.
func track[T any](sweep string, fn func() (T, error)) (T, error) {
	out, err := mapPoints(sweep, 1, func(int) (T, error) { return fn() })
	if err != nil {
		var zero T
		return zero, err
	}
	return out[0], nil
}

// point wraps one sweep point: it logs progress, counts the point, and
// times it into the spacx_exp_point_seconds histogram.
func point(sweep string, fn func() error, logArgs ...any) error {
	stop := recorder.Time("spacx_exp_point_seconds", obs.Label{Key: "sweep", Value: sweep})
	err := fn()
	stop()
	recorder.Count("spacx_exp_points_total", 1, obs.Label{Key: "sweep", Value: sweep})
	if err != nil {
		recorder.Logger().Error(sweep+" point failed", append(logArgs, "err", err)...)
		return err
	}
	recorder.Logger().Info(sweep+" point", logArgs...)
	return nil
}
