// Package worker is the client half of the distributed sweep fabric: a
// Worker registers with a coordinator (internal/serve/fabric), long-polls
// for leased batches of sweep points, computes them through an injected
// ComputeFunc, and uploads the outcomes — heartbeating throughout so the
// coordinator can re-lease its work the moment it goes silent.
//
// The compute function is injected rather than imported so the package
// stays protocol-only: cmd/spacx-worker wires in a serve.Service-backed
// compute core (its response LRU, kept hot per shard by the coordinator's
// consistent-hash routing), while tests wire in scripted functions to
// choreograph faults.
//
// Lifecycle: Run blocks until ctx is cancelled (returning ctx.Err()) or the
// coordinator drains (returning nil). A coordinator restart is survived
// transparently: any endpoint answering 404 unknown-worker triggers
// re-registration under a fresh id, and in-flight work from the old life is
// cancelled. Heartbeat responses cancel individual leases (expired,
// reassigned, or their sweep was cancelled) by cancelling the lease's
// compute context — the ctx plumbing that makes DELETE on a fanned-out job
// reach into a worker's in-flight batch.
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"spacx/internal/buildinfo"
	"spacx/internal/exp/engine"
	"spacx/internal/obs"
	"spacx/internal/obs/flightrec"
	"spacx/internal/obs/tracing"
	"spacx/internal/serve/fabric"
)

// ComputeFunc evaluates one leased sweep point. A returned error means the
// point was NOT computed (the context was cancelled, the core is draining)
// and must not be uploaded; a deterministic point-level failure goes in the
// Outcome's Error field instead, exactly as a local run would record it.
type ComputeFunc func(ctx context.Context, p fabric.Point) (fabric.Outcome, error)

// Options wires a Worker; URL and Compute are required.
type Options struct {
	// URL is the coordinator base URL, e.g. "http://127.0.0.1:8080".
	URL string
	// Compute evaluates leased points.
	Compute ComputeFunc
	// Name is the operator-facing label sent at registration.
	Name string
	// Jobs is the intra-batch parallelism (<= 0 means GOMAXPROCS).
	Jobs int
	// MaxPoints caps the points requested per lease (0 = coordinator default).
	MaxPoints int
	// Poll is the long-poll window sent with lease requests (<= 0 means 5s;
	// the coordinator caps it server-side).
	Poll time.Duration
	// Retry is the backoff after transport errors and failed registrations
	// (<= 0 means 1s).
	Retry time.Duration
	// Client is the HTTP client (nil means a 30s-timeout default).
	Client *http.Client
	// Recorder receives worker metrics (nil means none).
	Recorder obs.Recorder
	// Traces, when non-nil, records a worker:lease trace per leased batch and
	// ships its completed spans back to the coordinator for stitching.
	Traces *tracing.Collector
	// Metrics, when non-nil, is snapshotted on every heartbeat and pushed to
	// the coordinator for fleet-wide federation (normally the same registry
	// Recorder writes into).
	Metrics obs.Snapshotter
	// Flight, when non-nil, records worker-side fabric lifecycle events.
	Flight *flightrec.Recorder
	// Version is the build stamp sent at registration (defaults to this
	// binary's).
	Version string
}

func (o Options) withDefaults() Options {
	if o.Jobs <= 0 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
	if o.Poll <= 0 {
		o.Poll = 5 * time.Second
	}
	if o.Retry <= 0 {
		o.Retry = time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.Recorder == nil {
		o.Recorder = obs.Nop()
	}
	if o.Version == "" {
		o.Version = buildinfo.Get().String()
	}
	return o
}

// errReregister reports a 404 from the coordinator: it no longer knows this
// worker (restart or expiry) and the worker must register again.
var errReregister = errors.New("worker: coordinator does not know this worker")

// Worker is one fleet member. Create with New, drive with Run.
type Worker struct {
	opts Options
	rec  obs.Recorder

	mu        sync.Mutex
	id        string
	heartbeat time.Duration
	inflight  map[string]context.CancelFunc // lease id -> compute cancel
	drain     bool
	// pend holds span batches that missed their upload (failed POST, or a
	// batch with zero computed points); the next heartbeat piggybacks them.
	pend []fabric.SpanBatch
}

// maxPendingSpanBatches bounds the span stash: past it, the oldest batches
// are dropped — observability must never hold worker memory hostage when the
// coordinator is unreachable.
const maxPendingSpanBatches = 64

// New validates opts and builds a stopped worker.
func New(opts Options) (*Worker, error) {
	if opts.URL == "" {
		return nil, fmt.Errorf("worker: Options.URL is required")
	}
	if opts.Compute == nil {
		return nil, fmt.Errorf("worker: Options.Compute is required")
	}
	opts = opts.withDefaults()
	return &Worker{
		opts:     opts,
		rec:      opts.Recorder,
		inflight: map[string]context.CancelFunc{},
	}, nil
}

// ID returns the coordinator-assigned worker id ("" before registration).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Run registers and then serves leases until ctx is cancelled (ctx.Err())
// or the coordinator drains (nil).
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	hbCtx, hbCancel := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(hbCtx)
	}()
	defer func() {
		hbCancel()
		<-hbDone
	}()

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.draining() {
			return nil
		}
		lease, err := w.lease(ctx)
		switch {
		case errors.Is(err, errReregister):
			w.cancelAllInflight()
			if err := w.register(ctx); err != nil {
				return err
			}
			continue
		case err != nil:
			if !w.sleep(ctx, w.opts.Retry) {
				return ctx.Err()
			}
			continue
		case lease == nil:
			// No work inside the long-poll window. The coordinator paces the
			// poll; the short floor only guards against a misbehaving peer
			// answering instantly.
			if !w.sleep(ctx, 20*time.Millisecond) {
				return ctx.Err()
			}
			continue
		}
		w.serveLease(ctx, lease)
	}
}

// sleep waits d or until ctx is done, reporting whether ctx survived.
func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// register obtains a fresh worker id, retrying transport errors until ctx
// dies. A draining coordinator (503) is treated like any other retryable
// failure — the worker keeps trying until told to stop.
func (w *Worker) register(ctx context.Context) error {
	bi := buildinfo.Get()
	req := fabric.RegisterRequest{
		Proto:     fabric.ProtoVersion,
		Name:      w.opts.Name,
		Version:   w.opts.Version,
		GoVersion: bi.GoVersion,
		Revision:  bi.Revision,
		Jobs:      w.opts.Jobs,
	}
	for {
		var resp fabric.RegisterResponse
		status, err := w.post(ctx, "/fabric/v1/register", req, &resp)
		if err == nil && status == http.StatusOK {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.heartbeat = time.Duration(resp.HeartbeatSec * float64(time.Second))
			if w.heartbeat <= 0 {
				w.heartbeat = 3 * time.Second
			}
			w.mu.Unlock()
			w.rec.Count("spacx_worker_registrations_total", 1)
			w.opts.Flight.Record(flightrec.Event{Kind: "fabric:register", Worker: resp.WorkerID, Detail: w.opts.URL})
			w.rec.Logger().Info("worker registered", "id", resp.WorkerID, "coordinator", w.opts.URL)
			return nil
		}
		if err == nil {
			err = fmt.Errorf("worker: register: coordinator answered %d", status)
		}
		w.rec.Logger().Warn("worker registration failed, retrying", "err", err)
		if !w.sleep(ctx, w.opts.Retry) {
			return ctx.Err()
		}
	}
}

// lease pulls one batch; nil means no work inside the long-poll window.
func (w *Worker) lease(ctx context.Context) (*fabric.LeaseResponse, error) {
	req := fabric.LeaseRequest{
		Proto:     fabric.ProtoVersion,
		WorkerID:  w.ID(),
		MaxPoints: w.opts.MaxPoints,
		WaitSec:   w.opts.Poll.Seconds(),
	}
	var resp fabric.LeaseResponse
	status, err := w.post(ctx, "/fabric/v1/lease", req, &resp)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
		return &resp, nil
	case http.StatusNoContent:
		return nil, nil
	case http.StatusNotFound:
		return nil, errReregister
	default:
		return nil, fmt.Errorf("worker: lease: coordinator answered %d", status)
	}
}

// serveLease computes one leased batch and uploads whatever was actually
// computed. The batch runs under its own cancellable context, registered in
// the inflight table so a heartbeat cancellation (or drain) reaches into
// the compute mid-flight.
func (w *Worker) serveLease(ctx context.Context, l *fabric.LeaseResponse) {
	lctx, cancel := context.WithCancel(ctx)
	w.mu.Lock()
	w.inflight[l.LeaseID] = cancel
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.inflight, l.LeaseID)
		w.mu.Unlock()
		cancel()
	}()

	// The batch runs under its own LOCAL trace: worker:lease root,
	// worker:compute child, one worker:point grandchild per point. After the
	// batch, the completed spans are exported flat and shipped to the
	// coordinator, which stitches them under the distributed job's fabric:lease
	// span using the (Trace, Span) coordinates echoed from the lease response.
	tctx, root := w.opts.Traces.StartTrace(lctx, "worker:lease")
	outcomes := make([]fabric.Outcome, len(l.Points))
	computed := make([]bool, len(l.Points))
	stop := w.rec.Time("spacx_worker_batch_seconds")
	cctx, csp := tracing.StartSpan(tctx, "worker:compute")
	_ = engine.ForEach(cctx, w.opts.Jobs, len(l.Points), func(i int) error {
		pctx, psp := tracing.StartSpan(cctx, "worker:point")
		o, err := w.opts.Compute(pctx, l.Points[i])
		if err != nil {
			psp.EndAnnotated("abandoned")
			return err
		}
		psp.End()
		outcomes[i] = o
		computed[i] = true
		return nil
	})
	csp.End()
	stop()
	root.End()
	w.rec.Count("spacx_worker_leases_total", 1)

	var spans []tracing.SpanData
	if l.Trace != "" {
		spans, _ = w.opts.Traces.Export(root.TraceID())
	}

	ups := make([]fabric.Outcome, 0, len(outcomes))
	for i, ok := range computed {
		if ok {
			ups = append(ups, outcomes[i])
		}
	}
	if len(ups) == 0 {
		// Nothing to upload (cancelled before any point finished); the spans
		// still describe real work — stash them for the next heartbeat.
		w.stashSpans(l, spans)
		return
	}
	w.rec.Count("spacx_worker_points_total", float64(len(ups)))
	up := fabric.ResultUpload{
		Proto:    fabric.ProtoVersion,
		WorkerID: w.ID(),
		LeaseID:  l.LeaseID,
		SweepID:  l.SweepID,
		Outcomes: ups,
		Trace:    l.Trace,
		Span:     l.Span,
		Spans:    spans,
	}
	// Upload under the worker context, not the lease context: even a
	// cancelled lease's finished points are valid, deterministic results the
	// coordinator may still want (first-write-wins makes extras harmless).
	var resp fabric.ResultResponse
	status, err := w.post(ctx, "/fabric/v1/result", up, &resp)
	if err != nil || status != http.StatusOK {
		w.rec.Count("spacx_worker_upload_failures_total", 1)
		w.opts.Flight.Record(flightrec.Event{
			Kind: "upload:fail", Worker: w.ID(), Lease: l.LeaseID, Trace: l.Trace,
			Detail: fmt.Sprintf("status %d err %v", status, err),
		})
		w.rec.Logger().Warn("result upload failed; coordinator will re-lease", "lease", l.LeaseID, "status", status, "err", err)
		w.stashSpans(l, spans)
		return
	}
	if resp.Stale {
		w.rec.Count("spacx_worker_stale_uploads_total", 1)
	}
}

// stashSpans queues a lease's exported spans for heartbeat piggyback when
// they missed their upload. Bounded: the oldest batches fall off first.
func (w *Worker) stashSpans(l *fabric.LeaseResponse, spans []tracing.SpanData) {
	if l.Trace == "" || len(spans) == 0 {
		return
	}
	w.mu.Lock()
	w.pend = append(w.pend, fabric.SpanBatch{Trace: l.Trace, Span: l.Span, Spans: spans})
	if over := len(w.pend) - maxPendingSpanBatches; over > 0 {
		w.pend = append(w.pend[:0:0], w.pend[over:]...)
	}
	w.mu.Unlock()
}

// takePendingSpans drains the span stash for one heartbeat.
func (w *Worker) takePendingSpans() []fabric.SpanBatch {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.pend
	w.pend = nil
	return out
}

// heartbeatLoop keeps the coordinator's liveness view fresh and applies its
// lease reconciliation: cancelled leases get their compute contexts
// cancelled, drain flips the worker into shutdown.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		every := w.heartbeat
		w.mu.Unlock()
		if every <= 0 {
			every = 3 * time.Second
		}
		if !w.sleep(ctx, every) {
			return
		}
		w.mu.Lock()
		ids := make([]string, 0, len(w.inflight))
		for id := range w.inflight {
			ids = append(ids, id)
		}
		id := w.id
		w.mu.Unlock()
		req := fabric.HeartbeatRequest{
			Proto:    fabric.ProtoVersion,
			WorkerID: id,
			Leases:   ids,
			Spans:    w.takePendingSpans(),
		}
		if w.opts.Metrics != nil {
			snap := w.opts.Metrics.Snapshot()
			req.Metrics = &snap
		}
		var resp fabric.HeartbeatResponse
		status, err := w.post(ctx, "/fabric/v1/heartbeat", req, &resp)
		if err != nil {
			w.restashSpans(req.Spans)
			continue // transient; the coordinator's WorkerTTL is the judge
		}
		if status == http.StatusNotFound {
			// Coordinator restarted: whatever we are computing belongs to a
			// dead life. The main loop re-registers on its next lease call.
			// Pending spans reference traces of that dead life — drop them.
			w.cancelAllInflight()
			continue
		}
		if status != http.StatusOK {
			w.restashSpans(req.Spans)
			continue
		}
		for _, lid := range resp.Cancelled {
			w.cancelLease(lid)
		}
		if resp.Drain {
			w.mu.Lock()
			w.drain = true
			w.mu.Unlock()
			w.opts.Flight.Record(flightrec.Event{Kind: "fabric:drain", Worker: id})
			w.cancelAllInflight()
			return
		}
	}
}

// restashSpans puts span batches back after a failed heartbeat, behind any
// batches stashed in the meantime (order matters less than not losing them).
func (w *Worker) restashSpans(batches []fabric.SpanBatch) {
	if len(batches) == 0 {
		return
	}
	w.mu.Lock()
	w.pend = append(w.pend, batches...)
	if over := len(w.pend) - maxPendingSpanBatches; over > 0 {
		w.pend = append(w.pend[:0:0], w.pend[over:]...)
	}
	w.mu.Unlock()
}

// cancelLease cancels one in-flight lease's compute context.
func (w *Worker) cancelLease(id string) {
	w.mu.Lock()
	cancel := w.inflight[id]
	w.mu.Unlock()
	if cancel != nil {
		w.rec.Count("spacx_worker_cancelled_leases_total", 1)
		w.opts.Flight.Record(flightrec.Event{Kind: "lease:cancel", Worker: w.ID(), Lease: id})
		cancel()
	}
}

// cancelAllInflight cancels every in-flight compute.
func (w *Worker) cancelAllInflight() {
	w.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(w.inflight))
	for _, c := range w.inflight {
		cancels = append(cancels, c)
	}
	w.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// draining reports whether the coordinator told this worker to stop.
func (w *Worker) draining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.drain
}

// post sends one JSON message and decodes a JSON answer (skipped on 204).
// Transport failures return an error; protocol-level failures return the
// status code for the caller to interpret.
func (w *Worker) post(ctx context.Context, path string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, fmt.Errorf("worker: encode %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.URL+path, bytes.NewReader(b))
	if err != nil {
		return 0, fmt.Errorf("worker: build %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("worker: %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return resp.StatusCode, fmt.Errorf("worker: read %s response: %w", path, err)
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("worker: decode %s response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}
