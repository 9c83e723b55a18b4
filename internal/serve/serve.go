// Package serve is the simulation-as-a-service layer: a long-running,
// stdlib-only HTTP surface that answers what-if queries (accelerator ×
// model × residency mode × batch) from a shared, concurrency-safe
// simulation core built on the pieces the batch CLIs already use — the
// simulator's model totals and the observability registry.
//
// Architecture, request path first:
//
//   - Admission: every query is answered from a bounded-depth queue. When
//     the queue is full the request is rejected immediately with 429 and a
//     Retry-After hint — goroutine growth stays bounded under overload.
//   - Caching: completed responses live in an LRU keyed on the network
//     fingerprint × model × mode × batch. A repeat of a served query
//     returns the byte-identical cached body without simulating.
//   - Singleflight: duplicate queries that arrive while the first is still
//     in flight coalesce onto one computation; everyone gets the one
//     result.
//   - Worker pool: Workers goroutines read the admission queue; each runs
//     one job at a time and delivers its result the moment it is computed.
//
// The response LRU (with its singleflight table) is the service's one
// cache: a miss folds the plain scalar kernel's result for every layer into
// the model totals (sim.Request.Totals), keeping no per-layer results. The
// model and accelerator catalogs are built once per entry, on first use,
// and shared read-only by every request.
//
// Lifecycle: Start launches the worker pool under a context; Close stops
// admission, drains every queued job, and returns once every worker has
// exited — the graceful half of a SIGTERM. Cancelling the Start context is
// the hard half: a job no worker has started is failed with the context's
// cause, so its waiters get a shutdown error.
package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"spacx/internal/exp/engine"
	"spacx/internal/obs"
	"spacx/internal/obs/tracing"
)

// Options tunes the service; every zero field gets a sensible default.
type Options struct {
	// Workers is the number of goroutines that run admitted queries, one
	// at a time each (<= 0 means runtime.GOMAXPROCS(0)).
	Workers int
	// QueueDepth bounds the admission queue; enqueue attempts beyond it are
	// rejected with 429 (<= 0 means 64).
	QueueDepth int
	// MaxBatch caps the points one sweep, sync or async, has in flight at
	// once (<= 0 means 16). It is named after the micro-batching scheduler
	// it once also sized, and keeps that name because the end-to-end
	// benchmark sets it.
	MaxBatch int
	// CacheEntries is the response LRU capacity (<= 0 means 512).
	CacheEntries int
	// MaxRequestBatch is the largest accepted per-request batch size
	// (<= 0 means 256).
	MaxRequestBatch int
	// MaxSweepPoints caps the /v1/sweep grid (<= 0 means 64).
	MaxSweepPoints int
	// RetryAfter is the backpressure hint returned with 429/503 responses
	// (<= 0 means 1s; rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// Recorder receives the service's metrics (nil means none). Use the
	// same *obs.Registry the observability server exposes so queue depths,
	// cache ratios, and request counts land on /metrics (latencies are span
	// durations, which Traces records).
	Recorder obs.Recorder
	// Progress optionally tracks served points as the "serve" phase of the
	// live /progress endpoint.
	Progress *engine.Progress
	// Traces, when non-nil, gives every /v1 request a trace: the response
	// carries an X-Spacx-Trace header and the span tree (queue wait, cache
	// lookup, engine compute, simulator run) lands on /traces/{id}.
	Traces *tracing.Collector
	// MaxThermalSteps caps the /v1/thermal replay length, bounding the work
	// one request can demand (<= 0 means 20000).
	MaxThermalSteps int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 512
	}
	if o.MaxRequestBatch <= 0 {
		o.MaxRequestBatch = 256
	}
	if o.MaxSweepPoints <= 0 {
		o.MaxSweepPoints = 64
	}
	if o.MaxThermalSteps <= 0 {
		o.MaxThermalSteps = 20000
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.Recorder == nil {
		o.Recorder = obs.Nop()
	}
	return o
}

// Sentinel admission errors; the handlers map them to 429 and 503.
var (
	errQueueFull = errors.New("serve: simulation queue full")
	errDraining  = errors.New("serve: server is draining")
)

// Service is the shared simulation core behind the /v1 endpoints.
type Service struct {
	opts  Options
	rec   obs.Recorder
	phase *engine.Phase

	cache *resultCache
	queue chan *job

	ctx      context.Context
	quit     chan struct{}
	done     chan struct{}
	draining chan struct{} // closed by Close before quit, under admitMu
	// admitMu orders a leader's admission against Close: see admit.
	admitMu sync.Mutex
}

// job is one admitted query travelling from the handler to a pool worker.
type job struct {
	q     query
	f     *flight
	ctx   context.Context // the admitting request's context: carries its trace
	qspan *tracing.Span   // open queue-wait span, ended when a worker picks the job up
}

// New builds a stopped service; call Start before serving requests.
func New(opts Options) *Service {
	opts = opts.withDefaults()
	return &Service{
		opts:     opts,
		rec:      opts.Recorder,
		phase:    opts.Progress.Phase("serve"),
		cache:    newResultCache(opts.CacheEntries),
		queue:    make(chan *job, opts.QueueDepth),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		draining: make(chan struct{}),
	}
}

// Start launches Options.Workers pool goroutines. ctx is the hard-shutdown
// context: cancelling it fails every job no worker has started. done closes
// once every worker has exited. Start must be called exactly once.
func (s *Service) Start(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.ctx = ctx
	var wg sync.WaitGroup
	wg.Add(s.opts.Workers)
	for range s.opts.Workers {
		go func() {
			defer wg.Done()
			s.work()
		}()
	}
	go func() {
		wg.Wait()
		close(s.done)
	}()
}

// Close stops admission (new queries get 503), drains every queued job to
// completion, and returns once every worker has exited. Safe to call once,
// after Start.
func (s *Service) Close() {
	s.admitMu.Lock()
	close(s.draining)
	s.admitMu.Unlock()
	close(s.quit)
	<-s.done
}

// Draining reports whether Close has begun.
func (s *Service) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// resolve answers one validated query: from the response LRU, by joining an
// in-flight identical computation, or by enqueueing a new job and waiting.
// src reports how the bytes were obtained: "hit", "coalesced", or "miss".
func (s *Service) resolve(ctx context.Context, q query) (body []byte, src string, err error) {
	_, csp := tracing.StartSpan(ctx, "cache:lookup")
	body, f, leader := s.cache.lookup(q.key)
	csp.End()
	if body != nil {
		s.rec.Count("spacx_serve_cache_hits_total", 1)
		return body, "hit", nil
	}
	if leader {
		s.rec.Count("spacx_serve_cache_misses_total", 1)
		if err := s.admit(ctx, q, f); err != nil {
			// The flight is failed so any coalesced waiters that joined in
			// the meantime are released with the same answer.
			s.cache.complete(q.key, f, nil, err)
			return nil, "", err
		}
		s.rec.Gauge("spacx_serve_queue_depth", float64(len(s.queue)))
	} else {
		s.rec.Count("spacx_serve_coalesced_total", 1)
	}
	if !leader {
		// A coalesced waiter's trace shows the join as one span; the engine
		// compute itself belongs to the leader's trace.
		_, wsp := tracing.StartSpan(ctx, "flight:wait")
		defer wsp.End()
	}
	select {
	case <-f.done:
		if f.err != nil {
			return nil, "", f.err
		}
		if leader {
			return f.body, "miss", nil
		}
		return f.body, "coalesced", nil
	case <-ctx.Done():
		// The client went away; the computation continues for any other
		// waiter and still lands in the cache.
		return nil, "", ctx.Err()
	}
}

// admit queues a leader's job without blocking: errDraining once Close has
// begun, errQueueFull when the queue is full (bounded backpressure: reject
// now rather than queue without limit). admitMu spans the Draining check
// and the send, and Close holds it around close(draining), so a job that
// passes the check is in the queue before close(quit) sends the workers to
// their final drain; it can never land in a queue nobody reads.
func (s *Service) admit(ctx context.Context, q query, f *flight) error {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.Draining() {
		return errDraining
	}
	// The queue-wait span is ended by whichever worker picks the job up,
	// attributing admission latency to this request's trace even though
	// another goroutine measures it.
	jctx, qsp := tracing.StartSpan(ctx, "queue:wait")
	select {
	case s.queue <- &job{q: q, f: f, ctx: jctx, qspan: qsp}:
		return nil
	default:
		qsp.End()
		s.rec.Count("spacx_serve_queue_rejected_total", 1)
		return errQueueFull
	}
}

// work is one pool worker: it runs queued jobs one at a time until Close
// (then it drains the queue) or the hard context's cancellation (then the
// drain fails every job left) tells it to stop.
func (s *Service) work() {
	for {
		select {
		case j := <-s.queue:
			s.run(j)
		case <-s.quit:
			s.drain()
			return
		case <-s.ctx.Done():
			s.drain()
			return
		}
	}
}

// drain runs every job left in the queue until it finds the queue empty.
// Once Close has closed quit no job is admitted, so nothing can land in the
// queue after the last worker's drain returns.
func (s *Service) drain() {
	for {
		select {
		case j := <-s.queue:
			s.run(j)
		default:
			return
		}
	}
}

// run answers one job and delivers it. A job picked up after the hard
// context is cancelled is failed with the context's cause instead; it counts
// as submitted but never started in the "serve" progress phase.
func (s *Service) run(j *job) {
	j.qspan.End()
	s.rec.Gauge("spacx_serve_queue_depth", float64(len(s.queue)))
	s.phase.Begin(1)
	defer s.phase.End()
	if s.ctx.Err() != nil {
		s.finish(j, nil, context.Cause(s.ctx))
		return
	}
	s.phase.PointStart()
	defer s.phase.PointDone()
	ectx, esp := tracing.StartSpan(j.ctx, "engine:compute")
	body, err := s.execute(ectx, j.q)
	esp.End()
	s.finish(j, body, err)
}

// finish completes a job's flight and keeps the cache gauges current.
func (s *Service) finish(j *job, body []byte, err error) {
	evicted := s.cache.complete(j.q.key, j.f, body, err)
	if evicted > 0 {
		s.rec.Count("spacx_serve_cache_evictions_total", float64(evicted))
	}
	s.rec.Gauge("spacx_serve_cache_entries", float64(s.cache.len()))
}

// execute runs one simulation and encodes the response body. ctx carries
// the admitting request's trace, under which the model evaluation is one
// "sim:model" span, so the simulator's own compute time is attributable
// against the queue wait and cache lookups that preceded it. Cancellation is
// not consulted here — an admitted job always runs to completion so its
// result lands in the cache.
func (s *Service) execute(ctx context.Context, q query) ([]byte, error) {
	_, sp := tracing.StartSpan(ctx, "sim:model")
	res, err := q.req.Totals(nil)
	sp.End()
	s.rec.Count("spacx_serve_engine_runs_total", 1)
	if err != nil {
		return nil, err
	}
	return encodeSimulateResponse(q, res)
}
