package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"spacx/internal/exp/engine"
)

// SweepRun is one validated sweep: the unit of work a synchronous /v1/sweep
// and the jobs subsystem (internal/serve/jobs) execute against the service.
// Preparing and running are split so that submission can fail fast (400 on
// a bad grid) while an async job runs later, on the job's own context, with
// its own progress phase.
type SweepRun struct {
	svc     *Service
	queries []query
	points  []SweepPoint
}

// PrepareSweep decodes and validates a sweep body (POST /v1/sweep and
// POST /v1/jobs take the same JSON shape) without resolving any point.
func (s *Service) PrepareSweep(body []byte) (*SweepRun, error) {
	var req SweepRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after request object")
	}
	queries, points, err := s.expandSweep(&req)
	if err != nil {
		return nil, err
	}
	return &SweepRun{svc: s, queries: queries, points: points}, nil
}

// Len is the sweep's point count.
func (r *SweepRun) Len() int { return len(r.points) }

// Run answers every grid point through the service's resolve path with at
// most MaxBatch points in flight, so one sweep occupies at most one
// micro-batch worth of the admission queue, and encodes the indented
// SweepResponse. An async job and a synchronous /v1/sweep (ph nil) both run
// here, so their bodies are byte-identical.
//
// Per-point simulation failures land in the point's error field and count
// toward failed; the run itself only fails when ctx is cancelled or the
// server is draining. ph receives per-point progress accounting
// (submitted/started/done), which is what the SSE stream reports.
func (r *SweepRun) Run(ctx context.Context, ph *engine.Phase) (result []byte, failed int, err error) {
	err = engine.ForEachPhase(ctx, ph, r.svc.opts.MaxBatch, len(r.queries), func(i int) error {
		return r.resolveInto(ctx, i)
	})
	if err != nil {
		return nil, 0, err
	}
	return r.encodeResult()
}

// resolveInto answers point i into the points slice through the service's
// full resolve path — loss budget, response cache, singleflight, admission
// queue, micro-batching. Queue-full rejections are retried after the
// Retry-After backoff: sweep work is deliberately last in line behind
// interactive traffic. A deterministic failure (over the loss budget, a
// simulation error) lands in the point's error field; a non-nil return
// (cancellation or drain) means the point was not answered and the sweep
// must stop.
func (r *SweepRun) resolveInto(ctx context.Context, i int) error {
	q := r.queries[i]
	if err := q.checkLossBudget(); err != nil {
		r.points[i].Error = err.Error()
		return nil
	}
	for {
		body, _, err := r.svc.resolve(ctx, q)
		switch {
		case err == nil:
			r.points[i].Result = json.RawMessage(body)
			return nil
		case errors.Is(err, errQueueFull):
			select {
			case <-time.After(r.svc.opts.RetryAfter):
			case <-ctx.Done():
				return ctx.Err()
			}
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded),
			errors.Is(err, errDraining):
			return err
		default:
			r.points[i].Error = err.Error()
			return nil
		}
	}
}

// encodeResult renders the terminal sweep artifact and its failed count.
func (r *SweepRun) encodeResult() ([]byte, int, error) {
	failed := 0
	for i := range r.points {
		if r.points[i].Error != "" {
			failed++
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(SweepResponse{Points: r.points}); err != nil {
		return nil, 0, fmt.Errorf("serve: encode sweep result: %w", err)
	}
	return buf.Bytes(), failed, nil
}
