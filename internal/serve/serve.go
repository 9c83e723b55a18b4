// Package serve is the simulation-as-a-service layer: a long-running,
// stdlib-only HTTP surface that answers what-if queries (accelerator ×
// model × residency mode × batch) from a shared, concurrency-safe
// simulation core built on the pieces the batch CLIs already use — the
// experiment engine's worker pool and the observability registry.
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
//   - Micro-batching: a scheduler goroutine coalesces the jobs already
//     queued (up to MaxBatch) and fans each batch across the experiment
//     engine's worker pool.
//
// The response LRU (with its singleflight table) is the service's one
// cache: a miss folds the plain scalar kernel's result for every layer into
// the model totals (sim.Request.Totals), keeping no per-layer results. The
// model and accelerator catalogs are built once per entry, on first use,
// and shared read-only by every request.
//
// Lifecycle: Start launches the scheduler under a context; Close stops
// admission, drains every queued job, and returns once the scheduler has
// exited — the graceful half of a SIGTERM. Cancelling the Start context is
// the hard half: unstarted batch items are abandoned via the engine's
// context plumbing and their waiters get a shutdown error.
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
	// Workers is the engine worker count per micro-batch (<= 0 means
	// runtime.GOMAXPROCS(0)).
	Workers int
	// QueueDepth bounds the admission queue; enqueue attempts beyond it are
	// rejected with 429 (<= 0 means 64).
	QueueDepth int
	// MaxBatch is the most requests one engine batch coalesces (<= 0 means
	// 16; 1 disables micro-batching). It also caps the points a sweep, sync
	// or async, has in flight at once.
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
	// cache ratios, batch sizes, and latencies land on /metrics.
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

// job is one admitted query travelling from the handler to the scheduler.
type job struct {
	q         query
	f         *flight
	ctx       context.Context // the admitting request's context: carries its trace
	qspan     *tracing.Span   // open queue-wait span, ended when a batch picks the job up
	delivered bool            // set by the batch worker; read after the batch barrier
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

// Start launches the micro-batching scheduler. ctx is the hard-shutdown
// context: cancelling it abandons batch items that have not started. Start
// must be called exactly once.
func (s *Service) Start(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.ctx = ctx
	go s.scheduler()
}

// Close stops admission (new queries get 503), drains every queued job to
// completion, and returns once the scheduler has exited. Safe to call once,
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
// passes the check is in the queue before the scheduler's final drain looks;
// it can never land in a queue nobody reads.
func (s *Service) admit(ctx context.Context, q query, f *flight) error {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.Draining() {
		return errDraining
	}
	// The queue-wait span is ended by whichever scheduler goroutine picks
	// the job up (or fails it), attributing admission latency to this
	// request's trace even though another goroutine measures it.
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

// scheduler is the micro-batching loop: one goroutine coalescing queued
// jobs into engine batches until Close (then it drains) or the hard
// context cancels (then remaining waiters get the cancellation).
func (s *Service) scheduler() {
	defer close(s.done)
	for {
		select {
		case first := <-s.queue:
			s.runBatch(s.collect(first))
		case <-s.quit:
			for {
				select {
				case j := <-s.queue:
					s.runBatch(s.collect(j))
				default:
					return
				}
			}
		case <-s.ctx.Done():
			s.failQueued(context.Cause(s.ctx))
			return
		}
	}
}

// collect coalesces the jobs already queued behind first into one batch of
// at most MaxBatch jobs; it never waits for more to arrive.
func (s *Service) collect(first *job) []*job {
	batch := append(make([]*job, 0, s.opts.MaxBatch), first)
	for len(batch) < s.opts.MaxBatch {
		select {
		case j := <-s.queue:
			batch = append(batch, j)
		default:
			return batch
		}
	}
	return batch
}

// runBatch fans one coalesced batch across the engine worker pool and
// delivers each job's result as soon as it is computed. Jobs abandoned by a
// hard cancellation are failed with the context's error.
func (s *Service) runBatch(batch []*job) {
	s.rec.Observe("spacx_serve_batch_size", float64(len(batch)))
	s.rec.Count("spacx_serve_batches_total", 1)
	s.rec.Gauge("spacx_serve_queue_depth", float64(len(s.queue)))
	_ = engine.ForEachPhase(s.ctx, s.phase, s.opts.Workers, len(batch), func(i int) error {
		j := batch[i]
		j.qspan.End()
		ectx, esp := tracing.StartSpan(j.ctx, "engine:compute")
		body, err := s.execute(ectx, j.q)
		esp.End()
		j.delivered = true
		s.finish(j, body, err)
		return nil
	})
	for _, j := range batch {
		if !j.delivered {
			j.qspan.End()
			s.finish(j, nil, context.Cause(s.ctx))
		}
	}
}

// failQueued fails every job still sitting in the queue with err — the
// hard-shutdown path, where nothing more will be simulated.
func (s *Service) failQueued(err error) {
	for {
		select {
		case j := <-s.queue:
			j.qspan.End()
			s.finish(j, nil, err)
		default:
			return
		}
	}
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
	stop := s.rec.Time("spacx_serve_sim_seconds")
	_, sp := tracing.StartSpan(ctx, "sim:model")
	res, err := q.req.Totals(nil)
	sp.End()
	stop()
	s.rec.Count("spacx_serve_engine_runs_total", 1)
	if err != nil {
		return nil, err
	}
	return encodeSimulateResponse(q, res)
}
