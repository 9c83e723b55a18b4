package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
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
// The body is byte-identical to a json.Encoder with SetIndent("", "  ")
// encoding SweepResponse{Points: r.points}, but written in one pass: the
// fixed fields are written directly, and each point's cached body is
// indented into place at the point's depth instead of being compacted and
// re-indented with the whole document. That needs no compaction because a
// cached body is json.Marshal output: compact and already HTML-escaped.
func (r *SweepRun) encodeResult() ([]byte, int, error) {
	failed := 0
	var b bytes.Buffer
	b.WriteString("{\n  \"points\": [")
	for i := range r.points {
		p := &r.points[i]
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    {\n      \"model\": ")
		writeJSONString(&b, p.Model)
		b.WriteString(",\n      \"accel\": ")
		writeJSONString(&b, p.Accel)
		b.WriteString(",\n      \"mode\": ")
		writeJSONString(&b, p.Mode)
		b.WriteString(",\n      \"batch\": ")
		b.WriteString(strconv.Itoa(p.Batch))
		if len(p.Result) > 0 {
			b.WriteString(",\n      \"result\": ")
			if err := json.Indent(&b, bytes.TrimRight(p.Result, " \t\r\n"), "      ", "  "); err != nil {
				return nil, 0, fmt.Errorf("serve: encode sweep result: %w", err)
			}
		}
		if p.Error != "" {
			failed++
			b.WriteString(",\n      \"error\": ")
			writeJSONString(&b, p.Error)
		}
		b.WriteString("\n    }")
	}
	if len(r.points) > 0 {
		b.WriteString("\n  ")
	}
	b.WriteString("]\n}\n")
	return b.Bytes(), failed, nil
}

// writeJSONString writes s as encoding/json writes a string: quoted, with
// HTML-sensitive characters escaped. Plain printable ASCII, such as every
// catalog name, is written as it is, which spares the sweep body about 1 400
// small allocations per 240 points.
func writeJSONString(b *bytes.Buffer, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			b.Write(q)
			return
		}
	}
	b.WriteByte('"')
	b.WriteString(s)
	b.WriteByte('"')
}
