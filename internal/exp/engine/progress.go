package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"spacx/internal/obs/tracing"
)

// Progress tracks the live state of a multi-phase sweep: each named Phase
// is one unit of sweep work (spacx-serve's served points, a job's grid),
// and every point it fans across the worker pool increments atomic
// submitted/started/done counters. A Progress is shared between the running
// sweeps and its live readers (spacx-serve's /progress endpoint and a job's
// SSE stream), so all methods are safe for concurrent use; the nil
// *Progress and nil *Phase are valid no-op receivers, keeping untracked
// runs free of conditionals.
type Progress struct {
	mu     sync.Mutex
	start  time.Time
	order  []*Phase
	byName map[string]*Phase
	now    func() time.Time // injectable for tests
}

// NewProgress starts an empty tracker; its creation time anchors ElapsedSec.
func NewProgress() *Progress {
	return &Progress{
		start:  time.Now(),
		byName: map[string]*Phase{},
		now:    time.Now,
	}
}

// Phase returns the named phase, creating it on first use. A nil Progress
// returns a nil Phase (also a valid no-op receiver).
func (p *Progress) Phase(name string) *Phase {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ph, ok := p.byName[name]
	if !ok {
		ph = &Phase{name: name, now: p.now}
		p.byName[name] = ph
		p.order = append(p.order, ph)
	}
	return ph
}

// Phase is one named unit of sweep work.
// Counters are atomics so worker goroutines update them without contention.
type Phase struct {
	name      string
	submitted atomic.Int64
	started   atomic.Int64
	done      atomic.Int64

	mu     sync.Mutex
	active int           // nested/concurrent Begin..End spans
	began  time.Time     // start of the current active span
	wall   time.Duration // accumulated wall time of completed spans
	now    func() time.Time
}

// Begin records n more submitted points and opens a wall-clock span; every
// Begin must be paired with an End. Nil-safe.
func (ph *Phase) Begin(n int) {
	if ph == nil {
		return
	}
	ph.submitted.Add(int64(n))
	ph.mu.Lock()
	if ph.active == 0 {
		ph.began = ph.now()
	}
	ph.active++
	ph.mu.Unlock()
}

// End closes the span opened by the matching Begin, folding its duration
// into the phase wall time. Nil-safe.
func (ph *Phase) End() {
	if ph == nil {
		return
	}
	ph.mu.Lock()
	ph.active--
	if ph.active == 0 {
		ph.wall += ph.now().Sub(ph.began)
	}
	ph.mu.Unlock()
}

// PointStart marks one point as picked up by a worker. Nil-safe.
func (ph *Phase) PointStart() {
	if ph != nil {
		ph.started.Add(1)
	}
}

// PointDone marks one point as finished (successfully or not). Nil-safe.
func (ph *Phase) PointDone() {
	if ph != nil {
		ph.done.Add(1)
	}
}

// liveWall is the phase wall time including any open span.
func (ph *Phase) liveWall() (time.Duration, bool) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	w := ph.wall
	if ph.active > 0 {
		w += ph.now().Sub(ph.began)
	}
	return w, ph.active > 0
}

// PhaseStatus is one phase of a Status snapshot.
type PhaseStatus struct {
	Name       string  `json:"name"`
	Total      int64   `json:"total"`
	Started    int64   `json:"started"`
	InFlight   int64   `json:"in_flight"`
	Done       int64   `json:"done"`
	Active     bool    `json:"active"`
	WallSec    float64 `json:"wall_sec"`
	RatePerSec float64 `json:"rate_per_sec"`
	ETASec     float64 `json:"eta_sec"`
}

// Status is a serializable point-in-time view of a Progress.
type Status struct {
	StartUTC   time.Time     `json:"start_utc"`
	ElapsedSec float64       `json:"elapsed_sec"`
	Total      int64         `json:"total"`
	Done       int64         `json:"done"`
	Phases     []PhaseStatus `json:"phases"`
}

// Status snapshots every phase in creation order. The per-phase rate is
// done points over the phase's own wall time, and the ETA extrapolates the
// remaining points at that rate. A nil Progress yields the zero Status.
func (p *Progress) Status() Status {
	if p == nil {
		return Status{}
	}
	p.mu.Lock()
	phases := append([]*Phase(nil), p.order...)
	st := Status{StartUTC: p.start.UTC(), ElapsedSec: p.now().Sub(p.start).Seconds()}
	p.mu.Unlock()
	for _, ph := range phases {
		wall, active := ph.liveWall()
		ps := PhaseStatus{
			Name:    ph.name,
			Total:   ph.submitted.Load(),
			Started: ph.started.Load(),
			Done:    ph.done.Load(),
			Active:  active,
			WallSec: wall.Seconds(),
		}
		ps.InFlight = ps.Started - ps.Done
		if ps.WallSec > 0 && ps.Done > 0 {
			ps.RatePerSec = float64(ps.Done) / ps.WallSec
			if remaining := ps.Total - ps.Done; remaining > 0 {
				ps.ETASec = float64(remaining) / ps.RatePerSec
			}
		}
		st.Total += ps.Total
		st.Done += ps.Done
		st.Phases = append(st.Phases, ps)
	}
	return st
}

// ForEachPhase is ForEach with per-point progress accounting: the phase sees
// n submitted points up front, then a start/done pair around every fn call.
// A nil phase is exactly ForEach; indices abandoned on cancellation never
// reach fn, so they show as submitted-but-not-started in the phase.
func ForEachPhase(ctx context.Context, ph *Phase, workers, n int, fn func(i int) error) error {
	if ph == nil {
		return ForEach(ctx, workers, n, fn)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// A traced caller sees the whole phase fan-out as one span, named after
	// the phase — on the serving path this is where batch execution time
	// becomes attributable per request.
	ctx, sp := tracing.StartSpan(ctx, "engine:"+ph.name)
	defer sp.End()
	ph.Begin(n)
	defer ph.End()
	return ForEach(ctx, workers, n, func(i int) error {
		ph.PointStart()
		defer ph.PointDone()
		return fn(i)
	})
}
