package serve

import (
	"context"
	"encoding/json"
	"errors"

	"spacx/internal/exp/engine"
	"spacx/internal/obs/tracing"
	"spacx/internal/serve/fabric"
)

// This file is the bridge between the serving core and the sweep fabric:
// runFabric fans an async sweep's points out through a Coordinator, and
// ComputePoint is the worker-side inverse — the fabric.Point decoder that
// cmd/spacx-worker plugs into its compute loop. The two ends round-trip the
// exact bytes the local path produces: a point's spec is the normalized
// SimulateRequest JSON, its outcome body is the response bytes resolve would
// have cached locally, so a distributed sweep's merged artifact is
// byte-identical to a single-process run.

// runFabric executes the sweep across the coordinator's worker fleet.
// Points are index-addressed end to end, so merge order never depends on
// which worker answered what, in what order. When the fleet is unavailable
// (none registered, or every worker died mid-sweep) the missing points are
// computed locally through the very same resolve path — the sweep degrades
// to a local run instead of failing, and the artifact bytes do not change.
func (r *SweepRun) runFabric(ctx context.Context, ph *engine.Phase, c *fabric.Coordinator) ([]byte, int, error) {
	ctx, sp := tracing.StartSpan(ctx, "fabric:sweep")
	defer sp.End()

	pts := make([]fabric.Point, len(r.queries))
	for i, q := range r.queries {
		pts[i] = fabric.Point{Index: i, Key: q.key, Spec: mustJSON(q.wire)}
	}
	// The coordinator fires PointStart/PointDone as points are leased and
	// delivered; Begin/End bracketing is ours, mirroring ForEachPhase.
	ph.Begin(len(pts))
	defer ph.End()

	res, err := c.RunSweep(ctx, ph, pts)
	switch {
	case err == nil:
	case errors.Is(err, fabric.ErrNoWorkers), errors.Is(err, fabric.ErrWorkersLost):
		// Partial (or zero) fleet coverage; the remainder is ours.
	default:
		return nil, 0, err
	}

	var missing []int
	for i := range r.points {
		var o fabric.Outcome
		if i < len(res.Outcomes) {
			o = res.Outcomes[i]
		}
		switch {
		case o.Error != "":
			r.points[i].Error = o.Error
		case len(o.Body) > 0:
			r.points[i].Result = json.RawMessage(o.Body)
		default:
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		if err := r.fillLocal(ctx, ph, missing, res.Started); err != nil {
			return nil, 0, err
		}
	}
	return r.encodeResult()
}

// fillLocal computes the listed points through the local resolve path,
// keeping the phase counters exact: a point the fabric already leased (and
// counted started) only gets its PointDone here, an untouched point gets
// both. engine.ForEach is used bare because Begin/End and per-point
// accounting are managed by the caller.
func (r *SweepRun) fillLocal(ctx context.Context, ph *engine.Phase, missing []int, started []bool) error {
	return engine.ForEach(ctx, r.svc.opts.MaxBatch, len(missing), func(k int) error {
		i := missing[k]
		if started == nil || !started[i] {
			ph.PointStart()
		}
		defer ph.PointDone()
		return r.resolveInto(ctx, i)
	})
}

// ComputePoint is the serve-backed fabric.ComputeFunc a worker runs leased
// points through: it decodes the point's SimulateRequest spec and answers it
// from this process's full resolve path — response LRU, singleflight,
// admission queue, micro-batching — which is exactly what keeps a worker's
// response cache hot for its consistent-hash shard.
//
// Spec problems (undecodable, unknown catalog names, over-limit batch)
// become deterministic outcome errors, not aborts: every replica of the
// point would fail identically, so the error is the point's result. The
// returned error is reserved for "this point was not computed" —
// cancellation or drain — and the fabric client must not upload anything
// for it.
func (s *Service) ComputePoint(ctx context.Context, p fabric.Point) (fabric.Outcome, error) {
	req, err := decodeSimulateRequest(p.Spec, s.opts.MaxRequestBatch)
	if err != nil {
		return fabric.Outcome{Index: p.Index, Error: err.Error()}, nil
	}
	q, err := buildQuery(req)
	if err != nil {
		return fabric.Outcome{Index: p.Index, Error: err.Error()}, nil
	}
	body, pointErr, err := s.resolvePoint(ctx, q)
	if err != nil {
		return fabric.Outcome{}, err
	}
	if pointErr != "" {
		return fabric.Outcome{Index: p.Index, Error: pointErr}, nil
	}
	return fabric.Outcome{Index: p.Index, Body: body}, nil
}
