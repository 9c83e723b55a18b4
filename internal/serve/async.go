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

// SweepRun is one validated asynchronous sweep: the unit of work the jobs
// subsystem (internal/serve/jobs) executes against the service. Preparing
// and running are split so that submission can fail fast (400 on a bad
// grid) while execution happens later, on the job's own context, with its
// own progress phase.
type SweepRun struct {
	svc     *Service
	req     SweepRequest
	queries []query
	points  []SweepPoint
}

// PrepareSweep decodes and validates an async sweep body (the same JSON
// shape as POST /v1/sweep) without resolving any point.
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
	return &SweepRun{svc: s, req: req, queries: queries, points: points}, nil
}

// Len is the sweep's point count.
func (r *SweepRun) Len() int { return len(r.points) }

// resolvePoint answers one sweep point through the service's full resolve
// path — loss budget, response cache, singleflight, admission queue,
// micro-batching. Queue-full rejections are retried with the Retry-After
// backoff: background sweep work is deliberately last in line behind
// interactive traffic. The three outcomes are disjoint: a body (success), a
// deterministic point-level error string (the same string every replica of
// this point would produce), or an abort error (cancellation or drain —
// the point was not answered and the sweep must stop).
func (s *Service) resolvePoint(ctx context.Context, q query) (body []byte, pointErr string, err error) {
	if err := q.checkLossBudget(); err != nil {
		return nil, err.Error(), nil
	}
	for {
		body, _, err := s.resolve(ctx, q)
		switch {
		case err == nil:
			return body, "", nil
		case errors.Is(err, errQueueFull):
			select {
			case <-time.After(s.opts.RetryAfter):
				continue
			case <-ctx.Done():
				return nil, "", ctx.Err()
			}
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return nil, "", err
		case errors.Is(err, errDraining):
			return nil, "", err
		default:
			return nil, err.Error(), nil
		}
	}
}

// Run executes every grid point and encodes the indented SweepResponse a
// synchronous /v1/sweep would have returned. With a fabric coordinator
// configured and workers attached the point space is sharded across the
// fleet (see runFabric); otherwise every point goes through the local
// resolve path. Both paths fill the same index-addressed points slice from
// the same deterministic per-point bytes, so the result is byte-identical
// either way.
//
// Per-point simulation failures land in the point's error field and count
// toward failed; the run itself only fails when ctx is cancelled or the
// server is draining. ph receives per-point progress accounting
// (submitted/started/done), which is what the SSE stream reports.
func (r *SweepRun) Run(ctx context.Context, ph *engine.Phase) (result []byte, failed int, err error) {
	if c := r.svc.opts.Fabric; c != nil && c.Workers() > 0 {
		return r.runFabric(ctx, ph, c)
	}
	return r.runLocal(ctx, ph)
}

// runLocal answers every point through the local resolve path with at most
// MaxBatch points in flight, so one sweep occupies at most one micro-batch
// worth of the admission queue. It is Run without the fabric, and the whole
// of a synchronous /v1/sweep (ph nil).
func (r *SweepRun) runLocal(ctx context.Context, ph *engine.Phase) ([]byte, int, error) {
	err := engine.ForEachPhase(ctx, ph, r.svc.opts.MaxBatch, len(r.queries), func(i int) error {
		return r.resolveInto(ctx, i)
	})
	if err != nil {
		return nil, 0, err
	}
	return r.encodeResult()
}

// resolveInto answers point i into the points slice; a non-nil error aborts
// the sweep (cancellation or drain), anything deterministic lands in the
// point itself.
func (r *SweepRun) resolveInto(ctx context.Context, i int) error {
	body, pointErr, err := r.svc.resolvePoint(ctx, r.queries[i])
	if err != nil {
		return err
	}
	if pointErr != "" {
		r.points[i].Error = pointErr
	} else {
		r.points[i].Result = json.RawMessage(body)
	}
	return nil
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
