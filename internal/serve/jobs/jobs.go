// Package jobs is the asynchronous job subsystem of spacx-serve: sweeps far
// too slow for a synchronous HTTP round trip are submitted as jobs
// (POST /v1/jobs), watched live over SSE (GET /v1/jobs/{id}/events, fed
// from the experiment engine's per-phase progress counters — points done,
// rate, ETA), cancelled mid-run (DELETE /v1/jobs/{id}, via the engine's
// context plumbing), and survive the server: every state transition of the
// lifecycle machine
//
//	pending → running → done | failed | cancelled
//
// appends one schema-versioned JSON line to the job ledger
// (internal/obs/ledger), so a restarted server lists past jobs, marks the
// ones it interrupted as failed, and garbage-collects old records instead
// of losing everything a disconnected client had in flight.
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
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"spacx/internal/buildinfo"
	"spacx/internal/exp/engine"
	"spacx/internal/obs"
	"spacx/internal/obs/ledger"
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
	// Path is the job ledger file ("" keeps jobs in memory only — they die
	// with the process).
	Path string
	// Keep bounds the terminal jobs retained in memory and in the ledger
	// (<= 0 means 64). Enforced on startup compaction and as jobs finish.
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

// Manager owns the job table: submission, execution, cancellation,
// persistence, recovery, and garbage collection.
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

	ledgerMu sync.Mutex // serializes ledger appends/compactions
}

// Job is one tracked job. All fields are guarded by mu except the progress
// tracker, whose counters are atomics.
type Job struct {
	id   string
	kind string

	mu         sync.Mutex
	state      State
	created    time.Time
	started    time.Time
	ended      time.Time
	request    json.RawMessage
	traceID    string
	total      int
	failed     int
	errMsg     string
	result     []byte
	cancelled  bool // DELETE arrived; distinguishes cancelled from failed
	recovered  bool // loaded from the ledger, not executed by this process
	staticDone int  // done count for recovered jobs (no live counters)

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

	Error     string `json:"error,omitempty"`
	Recovered bool   `json:"recovered,omitempty"`
}

// NewManager builds a manager and, when a ledger path is configured,
// recovers it: the newest record per job id is loaded, jobs the previous
// process left non-terminal are re-marked failed ("a restarted server
// resumes-as-failed"), and the file is compacted down to the newest Keep
// jobs with mismatched-schema lines dropped.
func NewManager(opts Options) (*Manager, error) {
	if opts.Prepare == nil {
		return nil, fmt.Errorf("jobs: Options.Prepare is required")
	}
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:   opts,
		rec:    opts.Recorder,
		ctx:    ctx,
		cancel: cancel,
		jobs:   map[string]*Job{},
	}
	if opts.Path != "" {
		if err := m.recover(); err != nil {
			cancel()
			return nil, err
		}
	}
	return m, nil
}

// recover loads the ledger, fails interrupted jobs, and compacts.
func (m *Manager) recover() error {
	recs, skipped, err := ledger.ReadJobs(m.opts.Path)
	if err != nil {
		return err
	}
	if skipped > 0 {
		m.rec.Count("spacx_jobs_ledger_skipped_total", float64(skipped))
	}
	now := time.Now().UTC()
	for i := range recs {
		if !State(recs[i].State).Terminal() {
			recs[i].State = string(Failed)
			recs[i].Error = "interrupted by server restart"
			recs[i].Ended = now
			recs[i].TimeUTC = now
		}
	}
	if len(recs) > m.opts.Keep {
		recs = recs[len(recs)-m.opts.Keep:]
	}
	for _, rec := range recs {
		j := jobFromRecord(rec)
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
	}
	return ledger.WriteJobs(m.opts.Path, recs)
}

// jobFromRecord rebuilds a (terminal) job from its newest ledger line.
func jobFromRecord(rec ledger.JobRecord) *Job {
	j := &Job{
		id:         rec.ID,
		kind:       rec.Kind,
		state:      State(rec.State),
		created:    rec.Created,
		started:    rec.Started,
		ended:      rec.Ended,
		request:    rec.Request,
		traceID:    rec.TraceID,
		total:      rec.Total,
		failed:     rec.Failed,
		errMsg:     rec.Error,
		result:     []byte(rec.Result),
		recovered:  true,
		staticDone: rec.Done,
		done:       make(chan struct{}),
	}
	close(j.done)
	return j
}

// newJobID returns a process-independent random job id; uniqueness across
// restarts matters because recovered and fresh jobs share one table.
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
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	live := 0
	for _, j := range m.jobs {
		if !j.State().Terminal() {
			live++
		}
	}
	if live >= m.opts.MaxLive {
		m.mu.Unlock()
		return nil, ErrBusy
	}
	m.mu.Unlock()

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
		request: append(json.RawMessage(nil), body...),
		traceID: tracing.ID(tctx),
		total:   sr.Len(),
		prog:    prog,
		phase:   prog.Phase("points"),
		cancel:  cancel,
		done:    make(chan struct{}),
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		return nil, ErrClosed
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.mu.Unlock()

	m.rec.Count("spacx_jobs_submitted_total", 1)
	m.updateLiveGauge()
	m.persist(j)

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
	m.persist(j)

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
	m.persist(j)
	m.gc()
}

// updateLiveGauge publishes the live (non-terminal) job count.
func (m *Manager) updateLiveGauge() {
	m.mu.Lock()
	live := 0
	for _, j := range m.jobs {
		if !j.State().Terminal() {
			live++
		}
	}
	m.mu.Unlock()
	m.rec.Gauge("spacx_jobs_live", float64(live))
}

// gc trims terminal jobs beyond Keep from memory, oldest first. The ledger
// itself is compacted on the next startup; bounding memory is what matters
// while the server lives.
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

// persist appends the job's current state to the ledger (no-op without a
// path). Appends are serialized so transition lines stay in order.
func (m *Manager) persist(j *Job) {
	if m.opts.Path == "" {
		return
	}
	m.ledgerMu.Lock()
	defer m.ledgerMu.Unlock()
	if err := ledger.AppendJob(m.opts.Path, j.record()); err != nil {
		m.rec.Logger().Warn("job ledger append failed", "job", j.id, "err", err)
	}
}

// record snapshots the job as one ledger line.
func (j *Job) record() ledger.JobRecord {
	st := j.Status()
	rec := ledger.JobRecord{
		Schema:  ledger.JobSchemaVersion,
		ID:      st.ID,
		Kind:    st.Kind,
		State:   string(st.State),
		TimeUTC: time.Now().UTC(),
		Created: st.CreatedUTC,
		TraceID: st.TraceID,
		Version: buildinfo.Get().String(),
		Total:   st.TotalPoints,
		Done:    st.DonePoints,
		Failed:  st.FailedPoints,
		Error:   st.Error,
	}
	if st.StartedUTC != nil {
		rec.Started = *st.StartedUTC
	}
	if st.EndedUTC != nil {
		rec.Ended = *st.EndedUTC
	}
	j.mu.Lock()
	rec.Request = j.request
	if st.State == Done {
		rec.Result = j.result
	}
	j.mu.Unlock()
	return rec
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
		Recovered:    j.recovered,
		DonePoints:   j.staticDone,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedUTC = &t
	}
	if !j.ended.IsZero() {
		t := j.ended
		st.EndedUTC = &t
	}
	prog := j.prog
	j.mu.Unlock()
	if prog != nil {
		ps := prog.Status()
		for _, ph := range ps.Phases {
			if ph.Name == "points" {
				st.DonePoints = int(ph.Done)
				if st.State == Running {
					st.RatePerSec = ph.RatePerSec
					st.ETASec = ph.ETASec
				}
			}
		}
	}
	return st
}
