// Package jobs is the asynchronous job subsystem of spacx-serve: sweeps far
// too slow for a synchronous HTTP round trip are submitted as jobs
// (POST /v1/jobs), watched live over SSE (GET /v1/jobs/{id}/events, fed
// from the experiment engine's per-phase progress counters — points done,
// rate, ETA), and cancelled mid-run (DELETE /v1/jobs/{id}, via the engine's
// context plumbing). Each job moves through the lifecycle machine
//
//	pending → running → done | failed | cancelled
//
// Jobs live in memory only: the manager keeps at most Options.MaxLive live
// jobs and the newest Options.Keep terminal ones, and they die with the
// process.
//
// The package deliberately does not import the serving core: execution is
// injected as a Prepare function returning a SweepRun, which internal/serve
// implements on top of its cache/queue/batching pipeline — the same sweep
// loop a synchronous /v1/sweep runs.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"spacx/internal/exp/engine"
	"spacx/internal/obs"
	"spacx/internal/obs/tracing"
)

// State is one lifecycle state of a job.
type State string

const (
	Pending   State = "pending"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled
}

// SweepRun is the executable form of a submitted job, prepared by the
// serving layer (see serve.Service.PrepareSweep).
type SweepRun interface {
	// Len is the total point count, known before the run starts.
	Len() int
	// Run executes the sweep under ctx, accounting per-point progress into
	// ph, and returns the encoded result body plus the failed-point count.
	Run(ctx context.Context, ph *engine.Phase) (result []byte, failed int, err error)
}

// Options wires a Manager; Prepare is required, everything else defaults.
type Options struct {
	// Prepare validates a submitted body into a runnable sweep; a returned
	// error is reported to the client as a 400.
	Prepare func(body []byte) (SweepRun, error)
	// Keep bounds the terminal jobs retained in memory (<= 0 means 64); the
	// oldest are dropped as jobs finish.
	Keep int
	// MaxLive bounds concurrently live (non-terminal) jobs; submissions
	// beyond it are rejected with ErrBusy (<= 0 means 8).
	MaxLive int
	// PollInterval is the SSE progress sampling cadence (<= 0 means 250ms).
	PollInterval time.Duration
	// WriteTimeout is the per-write deadline on SSE streams; a client
	// slower than this is disconnected rather than allowed to pin the
	// handler (<= 0 means 10s).
	WriteTimeout time.Duration
	// Heartbeat is the idle SSE keep-alive interval (<= 0 means 15s).
	Heartbeat time.Duration
	// Recorder receives job metrics (nil means none).
	Recorder obs.Recorder
	// Traces, when non-nil, gives every job its own trace spanning
	// submission to completion; the id is part of the job's status.
	Traces *tracing.Collector
}

func (o Options) withDefaults() Options {
	if o.Keep <= 0 {
		o.Keep = 64
	}
	if o.MaxLive <= 0 {
		o.MaxLive = 8
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 250 * time.Millisecond
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 15 * time.Second
	}
	if o.Recorder == nil {
		o.Recorder = obs.Nop()
	}
	return o
}

// Sentinel submission errors; the handlers map them onto status codes.
var (
	ErrBusy   = errors.New("jobs: too many live jobs")
	ErrClosed = errors.New("jobs: manager is closed")
)

// ErrNotFound reports an unknown job id.
var ErrNotFound = errors.New("jobs: no such job")

// Manager owns the job table: submission, execution, cancellation, and
// garbage collection.
type Manager struct {
	opts Options
	rec  obs.Recorder

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, oldest first
	closed bool
}

// Job is one tracked job. All fields are guarded by mu except the progress
// tracker, whose counters are atomics.
type Job struct {
	id   string
	kind string

	mu        sync.Mutex
	state     State
	created   time.Time
	started   time.Time
	ended     time.Time
	traceID   string
	total     int
	failed    int
	errMsg    string
	result    []byte
	cancelled bool // DELETE arrived; distinguishes cancelled from failed

	prog  *engine.Progress
	phase *engine.Phase

	cancel context.CancelFunc
	done   chan struct{} // closed on reaching a terminal state
}

// Status is the serializable view of a job — the JSON body of
// GET /v1/jobs/{id} (minus the result) and of every SSE event.
type Status struct {
	ID         string     `json:"id"`
	Kind       string     `json:"kind"`
	State      State      `json:"state"`
	CreatedUTC time.Time  `json:"created_utc"`
	StartedUTC *time.Time `json:"started_utc,omitempty"`
	EndedUTC   *time.Time `json:"ended_utc,omitempty"`
	TraceID    string     `json:"trace_id,omitempty"`

	TotalPoints  int     `json:"total_points"`
	DonePoints   int     `json:"done_points"`
	FailedPoints int     `json:"failed_points,omitempty"`
	RatePerSec   float64 `json:"rate_per_sec,omitempty"`
	ETASec       float64 `json:"eta_sec,omitempty"`

	Error string `json:"error,omitempty"`
}

// NewManager builds a manager; Options.Prepare is required.
func NewManager(opts Options) (*Manager, error) {
	if opts.Prepare == nil {
		return nil, fmt.Errorf("jobs: Options.Prepare is required")
	}
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		opts:   opts,
		rec:    opts.Recorder,
		ctx:    ctx,
		cancel: cancel,
		jobs:   map[string]*Job{},
	}, nil
}

// newJobID returns a random job id ("j" and 12 hex digits), falling back to
// the clock if the system's random source fails.
func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("j%012x", time.Now().UnixNano())
	}
	return "j" + hex.EncodeToString(b[:])
}

// Submit validates body as a sweep, registers a pending job, and starts it
// in the background. The returned job already has its id and trace id.
func (m *Manager) Submit(body []byte) (*Job, error) {
	// The first check spares Prepare when the manager is already full; the
	// bound holds because the insert below checks again under the same lock.
	m.mu.Lock()
	err := m.admitLocked()
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}

	sr, err := m.opts.Prepare(body)
	if err != nil {
		return nil, err
	}

	jctx, cancel := context.WithCancel(m.ctx)
	tctx, root := m.opts.Traces.StartTrace(jctx, "job:sweep")
	prog := engine.NewProgress()
	j := &Job{
		id:      newJobID(),
		kind:    "sweep",
		state:   Pending,
		created: time.Now().UTC(),
		traceID: tracing.ID(tctx),
		total:   sr.Len(),
		prog:    prog,
		phase:   prog.Phase("points"),
		cancel:  cancel,
		done:    make(chan struct{}),
	}

	m.mu.Lock()
	if err := m.admitLocked(); err != nil {
		m.mu.Unlock()
		cancel()
		root.End()
		return nil, err
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.mu.Unlock()

	m.rec.Count("spacx_jobs_submitted_total", 1)
	m.updateLiveGauge()

	m.wg.Add(1)
	go m.run(j, sr, tctx, root)
	return j, nil
}

// run drives one job from pending to a terminal state.
func (m *Manager) run(j *Job, sr SweepRun, ctx context.Context, root *tracing.Span) {
	defer m.wg.Done()
	j.mu.Lock()
	j.state = Running
	j.started = time.Now().UTC()
	j.mu.Unlock()

	result, failed, err := sr.Run(ctx, j.phase)
	root.End()

	j.mu.Lock()
	j.ended = time.Now().UTC()
	switch {
	case err == nil:
		j.state = Done
		j.result = result
		j.failed = failed
	case j.cancelled:
		j.state = Cancelled
		j.errMsg = "cancelled by request"
	case m.ctx.Err() != nil:
		j.state = Failed
		j.errMsg = "interrupted by server shutdown"
	default:
		j.state = Failed
		j.errMsg = err.Error()
	}
	state := j.state
	j.mu.Unlock()
	close(j.done)

	m.rec.Count("spacx_jobs_finished_total", 1, obs.Label{Key: "state", Value: string(state)})
	m.updateLiveGauge()
	m.gc()
}

// admitLocked reports why a submission cannot be admitted now: ErrClosed
// once Close has begun, ErrBusy with MaxLive jobs live. m.mu must be held.
func (m *Manager) admitLocked() error {
	if m.closed {
		return ErrClosed
	}
	if m.liveLocked() >= m.opts.MaxLive {
		return ErrBusy
	}
	return nil
}

// liveLocked counts the live (non-terminal) jobs. m.mu must be held.
func (m *Manager) liveLocked() int {
	live := 0
	for _, j := range m.jobs {
		if !j.State().Terminal() {
			live++
		}
	}
	return live
}

// updateLiveGauge publishes the live (non-terminal) job count.
func (m *Manager) updateLiveGauge() {
	m.mu.Lock()
	live := m.liveLocked()
	m.mu.Unlock()
	m.rec.Gauge("spacx_jobs_live", float64(live))
}

// gc trims terminal jobs beyond Keep from memory, oldest first.
func (m *Manager) gc() {
	m.mu.Lock()
	defer m.mu.Unlock()
	terminal := 0
	for _, id := range m.order {
		if m.jobs[id].State().Terminal() {
			terminal++
		}
	}
	if terminal <= m.opts.Keep {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		if terminal > m.opts.Keep && m.jobs[id].State().Terminal() {
			delete(m.jobs, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List snapshots every tracked job, newest submission first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		if j, ok := m.Get(ids[i]); ok {
			out = append(out, j.Status())
		}
	}
	return out
}

// Cancel requests cancellation of a live job via its context; the state
// flips to cancelled once the engine abandons the remaining points. It
// reports ErrNotFound for unknown ids and false (no error) when the job is
// already terminal.
func (m *Manager) Cancel(id string) (bool, error) {
	j, ok := m.Get(id)
	if !ok {
		return false, ErrNotFound
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false, nil
	}
	j.cancelled = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	m.rec.Count("spacx_jobs_cancelled_total", 1)
	return true, nil
}

// Close stops accepting submissions, cancels every live job, and waits for
// their runners to reach a terminal state (recorded as failed-by-shutdown).
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
}

// ID is the job's stable identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the encoded result body of a done job (nil otherwise).
func (j *Job) Result() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Done {
		return nil
	}
	return j.result
}

// Status snapshots the job, folding in the live progress counters: points
// done, rate, and ETA come from the engine phase the run accounts into.
func (j *Job) Status() Status {
	j.mu.Lock()
	st := Status{
		ID:           j.id,
		Kind:         j.kind,
		State:        j.state,
		CreatedUTC:   j.created,
		TraceID:      j.traceID,
		TotalPoints:  j.total,
		FailedPoints: j.failed,
		Error:        j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedUTC = &t
	}
	if !j.ended.IsZero() {
		t := j.ended
		st.EndedUTC = &t
	}
	j.mu.Unlock()
	for _, ph := range j.prog.Status().Phases {
		if ph.Name == "points" {
			st.DonePoints = int(ph.Done)
			if st.State == Running {
				st.RatePerSec = ph.RatePerSec
				st.ETASec = ph.ETASec
			}
		}
	}
	return st
}
