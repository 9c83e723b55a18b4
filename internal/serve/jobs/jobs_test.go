package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spacx/internal/exp/engine"
	"spacx/internal/obs/tracing"
)

// fakeRun is a controllable SweepRun: n points, each optionally gated on
// release so tests can hold a job mid-run.
type fakeRun struct {
	n       int
	release chan struct{} // nil = run freely
	result  []byte
	failed  int
	err     error
}

func (f *fakeRun) Len() int { return f.n }

func (f *fakeRun) Run(ctx context.Context, ph *engine.Phase) ([]byte, int, error) {
	err := engine.ForEachPhase(ctx, ph, 2, f.n, func(int) error {
		if f.release != nil {
			select {
			case <-f.release:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if f.err != nil {
		return nil, 0, f.err
	}
	return f.result, f.failed, nil
}

// newTestManager builds a manager whose Prepare returns the given run for
// any body (or its error when the body is literally "bad").
func newTestManager(t *testing.T, opts Options, run *fakeRun) *Manager {
	t.Helper()
	if opts.Prepare == nil {
		opts.Prepare = func(body []byte) (SweepRun, error) {
			if string(body) == "bad" {
				return nil, fmt.Errorf("invalid sweep")
			}
			return run, nil
		}
	}
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s never reached a terminal state (state %s)", j.ID(), j.State())
	}
}

func TestJobLifecycleToDone(t *testing.T) {
	run := &fakeRun{n: 3, result: []byte(`{"points":[]}`), failed: 1}
	m := newTestManager(t, Options{}, run)

	j, err := m.Submit([]byte(`{"models":["alexnet"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.TotalPoints != 3 || st.State.Terminal() && st.State != Done {
		t.Fatalf("initial status = %+v", st)
	}
	waitTerminal(t, j)

	st := j.Status()
	if st.State != Done || st.DonePoints != 3 || st.FailedPoints != 1 {
		t.Fatalf("terminal status = %+v, want done with 3 points (1 failed)", st)
	}
	if st.StartedUTC == nil || st.EndedUTC == nil {
		t.Fatalf("terminal job missing timestamps: %+v", st)
	}
	if string(j.Result()) != `{"points":[]}` {
		t.Fatalf("result = %q", j.Result())
	}
	list := m.List()
	if len(list) != 1 || list[0].ID != j.ID() {
		t.Fatalf("list = %+v", list)
	}
}

func TestSubmitRejectsBadBodyAndOverload(t *testing.T) {
	if _, err := NewManager(Options{}); err == nil {
		t.Fatal("NewManager accepted options without Prepare")
	}
	run := &fakeRun{n: 1, release: make(chan struct{})}
	m := newTestManager(t, Options{MaxLive: 1}, run)

	if _, err := m.Submit([]byte("bad")); err == nil || errors.Is(err, ErrBusy) {
		t.Fatalf("bad body error = %v, want the Prepare error", err)
	}

	j, err := m.Submit([]byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit([]byte("{}")); !errors.Is(err, ErrBusy) {
		t.Fatalf("second live submit error = %v, want ErrBusy", err)
	}
	close(run.release)
	waitTerminal(t, j)
	if _, err := m.Submit([]byte("{}")); err != nil {
		t.Fatalf("submit after the first finished: %v", err)
	}
}

func TestCancelMidRunReachesCancelled(t *testing.T) {
	run := &fakeRun{n: 4, release: make(chan struct{})}
	m := newTestManager(t, Options{}, run)

	j, err := m.Submit([]byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := m.Cancel(j.ID())
	if err != nil || !ok {
		t.Fatalf("cancel = (%v, %v), want (true, nil)", ok, err)
	}
	waitTerminal(t, j)
	if st := j.Status(); st.State != Cancelled || st.Error == "" {
		t.Fatalf("status after cancel = %+v, want cancelled with a reason", st)
	}
	// A second cancel of the now-terminal job reports false, no error.
	if ok, err := m.Cancel(j.ID()); ok || err != nil {
		t.Fatalf("cancel of terminal job = (%v, %v), want (false, nil)", ok, err)
	}
	if _, err := m.Cancel("jdeadbeef0000"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel of unknown id = %v, want ErrNotFound", err)
	}
}

func TestCloseFailsLiveJobsAsInterrupted(t *testing.T) {
	run := &fakeRun{n: 2, release: make(chan struct{})}
	m := newTestManager(t, Options{}, run)
	j, err := m.Submit([]byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	waitTerminal(t, j)
	if st := j.Status(); st.State != Failed || st.Error != "interrupted by server shutdown" {
		t.Fatalf("status after Close = %+v", st)
	}
	if _, err := m.Submit([]byte("{}")); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close = %v, want ErrClosed", err)
	}
}

// TestSubmitNeverExceedsMaxLive races eight submissions past the first
// live-job count: Prepare holds each one until all eight have passed it, so
// only the count taken where a job is inserted can keep MaxLive. Every
// rejected submission must end the trace it started.
func TestSubmitNeverExceedsMaxLive(t *testing.T) {
	const submitters = 8
	run := &fakeRun{n: 1, release: make(chan struct{})}
	var arrived atomic.Int32
	all := make(chan struct{}) // closed by the last submission to arrive
	traces := tracing.NewCollector(2*submitters, nil)
	m := newTestManager(t, Options{MaxLive: 1, Traces: traces, Prepare: func([]byte) (SweepRun, error) {
		if arrived.Add(1) == submitters {
			close(all)
		}
		select {
		case <-all:
			return run, nil
		case <-time.After(5 * time.Second):
			return nil, errors.New("not every submission reached Prepare")
		}
	}}, run)

	type outcome struct {
		j   *Job
		err error
	}
	outcomes := make(chan outcome, submitters)
	for i := 0; i < submitters; i++ {
		go func() {
			j, err := m.Submit([]byte("{}"))
			outcomes <- outcome{j, err}
		}()
	}
	var admitted []*Job
	busy := 0
	for i := 0; i < submitters; i++ {
		select {
		case o := <-outcomes:
			switch {
			case o.err == nil:
				admitted = append(admitted, o.j)
			case errors.Is(o.err, ErrBusy):
				busy++
			default:
				t.Errorf("submit error = %v, want nil or ErrBusy", o.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a submission never returned")
		}
	}
	close(run.release)
	if len(admitted) != 1 || busy != submitters-1 {
		t.Fatalf("admitted %d and rejected %d as busy, want 1 and %d", len(admitted), busy, submitters-1)
	}
	waitTerminal(t, admitted[0])
	m.Close() // waits for the runner, which ends the admitted job's trace
	if list := m.List(); len(list) != 1 || list[0].ID != admitted[0].ID() {
		t.Fatalf("list = %+v, want only the admitted job", list)
	}
	for _, ts := range traces.List() {
		if !ts.Complete {
			t.Errorf("trace %s left open: %+v", ts.ID, ts)
		}
	}
}

// TestKeepBoundsTerminalJobs runs more jobs to completion than Keep
// retains: only the newest Keep stay listed and retrievable.
func TestKeepBoundsTerminalJobs(t *testing.T) {
	m := newTestManager(t, Options{Keep: 2}, &fakeRun{n: 1, result: []byte("{}")})
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := m.Submit([]byte("{}"))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		ids = append(ids, j.ID())
	}
	m.Close() // waits for every runner, so the last job's trim has run
	list := m.List()
	if len(list) != 2 || list[0].ID != ids[4] || list[1].ID != ids[3] {
		t.Fatalf("list = %+v, want the two newest jobs %s and %s, newest first", list, ids[4], ids[3])
	}
	for _, id := range ids[:3] {
		if _, ok := m.Get(id); ok {
			t.Errorf("job %s is still retained beyond Keep", id)
		}
	}
}

func TestJobTraceIDFromCollector(t *testing.T) {
	c := tracing.NewCollector(8, nil)
	run := &fakeRun{n: 1, result: []byte("{}")}
	m := newTestManager(t, Options{Traces: c}, run)
	j, err := m.Submit([]byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	id := j.Status().TraceID
	if id == "" {
		t.Fatal("job has no trace id despite a collector")
	}
	td, ok := c.Trace(id)
	if !ok || !td.Complete {
		t.Fatalf("job trace %q not retained/complete: %+v", id, td)
	}
	if len(td.Spans) != 1 || td.Spans[0].Name != "job:sweep" {
		t.Fatalf("job trace spans = %+v, want the job:sweep root", td.Spans)
	}
}

func TestStatusSerializesStably(t *testing.T) {
	run := &fakeRun{n: 1, result: []byte("{}")}
	m := newTestManager(t, Options{}, run)
	j, err := m.Submit([]byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	b, err := json.Marshal(j.Status())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id"`, `"state":"done"`, `"total_points":1`, `"done_points":1`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("status JSON missing %s: %s", want, b)
		}
	}
}
