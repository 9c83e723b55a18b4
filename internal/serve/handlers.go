package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"spacx/internal/obs"
	"spacx/internal/obs/tracing"
)

// maxRequestBody bounds every request body read; simulation queries are a
// few hundred bytes, so 1 MiB is generous.
const maxRequestBody = 1 << 20

// Routes registers the /v1 API on mux. Mount it on the observability
// server's mux (server.Options.Mount) so the API shares /metrics, /readyz,
// and the drain lifecycle.
func (s *Service) Routes(mux *http.ServeMux) {
	mux.HandleFunc("/v1/simulate", s.Instrument("simulate", s.handleSimulate))
	mux.HandleFunc("/v1/sweep", s.Instrument("sweep", s.handleSweep))
	mux.HandleFunc("/v1/thermal", s.Instrument("thermal", s.handleThermal))
	mux.HandleFunc("/v1/models", s.Instrument("models", s.handleModels))
	mux.HandleFunc("/v1/accelerators", s.Instrument("accelerators", s.handleAccelerators))
}

// statusWriter records the final status code for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// streaming handlers behind Instrument (the jobs SSE endpoint) can still
// flush and set per-write deadlines.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Instrument wraps a handler with the request counter, the latency
// histogram (labeled by endpoint and final status code), and — when the
// service has a trace collector — a per-request trace: the root span covers
// the whole handler, the X-Spacx-Trace response header names it, and every
// downstream layer (admission queue, batch scheduler, engine, simulator)
// hangs child spans off the request context. The jobs subsystem mounts its
// endpoints through this same wrapper so every /v1 response is traced.
func (s *Service) Instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	lbl := obs.Label{Key: "endpoint", Value: endpoint}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, root := s.opts.Traces.StartTrace(r.Context(), "serve:"+endpoint)
		if id := tracing.ID(ctx); id != "" {
			w.Header().Set("X-Spacx-Trace", id)
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		stop := s.rec.Time("spacx_serve_request_seconds", lbl)
		h(sw, r)
		stop()
		root.End()
		s.rec.Count("spacx_serve_requests_total", 1, lbl,
			obs.Label{Key: "code", Value: strconv.Itoa(sw.code)})
	}
}

// writeJSON writes v as an indented JSON body with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr writes the uniform error body.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// retryAfterSeconds renders the backpressure hint, at least one second.
func (s *Service) retryAfterSeconds() string {
	secs := int(s.opts.RetryAfter.Seconds())
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeResolveErr maps resolve's admission errors onto status codes.
func (s *Service) writeResolveErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeErr(w, http.StatusTooManyRequests, "simulation queue full; retry later")
	case errors.Is(err, errDraining) || errors.Is(err, context.Canceled) && s.Draining():
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away; 499-style, nothing useful to send.
		writeErr(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		writeErr(w, http.StatusInternalServerError, "simulation failed: %v", err)
	}
}

// readBody reads a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
}

// handleSimulate answers POST /v1/simulate: one (model, accel, mode, batch)
// query through the cache, singleflight, and micro-batching pipeline. The
// X-Spacx-Cache trailer-free header reports hit/coalesced/miss.
func (s *Service) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	data, err := readBody(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	req, err := decodeSimulateRequest(data, s.opts.MaxRequestBatch)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	q, err := buildQuery(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := q.checkLossBudget(); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	body, src, err := s.resolve(r.Context(), q)
	if err != nil {
		s.writeResolveErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Spacx-Cache", src)
	_, _ = w.Write(body)
}

// SweepRequest is the JSON body of POST /v1/sweep: a small parameter grid,
// the cross product of the listed axes. Empty axes default to
// modes=["whole"] and batches=[1]; models and accels are required.
type SweepRequest struct {
	Models       []string `json:"models"`
	Accels       []string `json:"accels"`
	Modes        []string `json:"modes,omitempty"`
	Batches      []int    `json:"batches,omitempty"`
	LossBudgetDB float64  `json:"loss_budget_db,omitempty"`
}

// SweepPoint is one grid point of a sweep response: the embedded
// /v1/simulate response body, or the point's error.
type SweepPoint struct {
	Model  string          `json:"model"`
	Accel  string          `json:"accel"`
	Mode   string          `json:"mode"`
	Batch  int             `json:"batch"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// SweepResponse answers /v1/sweep in grid order (models outermost, batches
// innermost).
type SweepResponse struct {
	Points []SweepPoint `json:"points"`
}

// handleSweep answers POST /v1/sweep synchronously through the same loop
// as an async sweep job (SweepRun.Run): at most MaxBatch points
// in flight, each through the /v1/simulate resolve path — cached,
// coalesced and batched identically, so a sweep warms the cache for later
// point queries — and a queue-full point is retried after RetryAfter
// instead of failing. Per-point simulation failures land in the point's
// error field; the grid itself must validate.
func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	data, err := readBody(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	run, err := s.PrepareSweep(data)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, _, err := run.Run(r.Context(), nil)
	if err != nil {
		s.writeResolveErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// expandSweep validates a sweep request and expands its grid — the cross
// product of the listed axes, models outermost and batches innermost — into
// parallel query and point slices. Every point is validated before any is
// resolved, so a typo fails the whole sweep fast instead of after
// simulating half the grid. req's empty axes are normalized in place.
func (s *Service) expandSweep(req *SweepRequest) ([]query, []SweepPoint, error) {
	if len(req.Models) == 0 || len(req.Accels) == 0 {
		return nil, nil, fmt.Errorf("models and accels must be non-empty")
	}
	if len(req.Modes) == 0 {
		req.Modes = []string{"whole"}
	}
	if len(req.Batches) == 0 {
		req.Batches = []int{1}
	}
	// The axis product can overflow an int (a 1 MiB body holds axes of
	// 2^17 entries), so it is bounded axis by axis before anything is
	// allocated.
	n := 1
	for _, axis := range []int{len(req.Models), len(req.Accels), len(req.Modes), len(req.Batches)} {
		if n > math.MaxInt/axis {
			return nil, nil, fmt.Errorf("sweep grid has more than %d points, cap is %d", math.MaxInt, s.opts.MaxSweepPoints)
		}
		n *= axis
	}
	if n > s.opts.MaxSweepPoints {
		return nil, nil, fmt.Errorf("sweep grid has %d points, cap is %d", n, s.opts.MaxSweepPoints)
	}
	queries := make([]query, 0, n)
	points := make([]SweepPoint, 0, n)
	for _, model := range req.Models {
		for _, accel := range req.Accels {
			for _, mode := range req.Modes {
				for _, batch := range req.Batches {
					sr, err := checkSimulateRequest(SimulateRequest{
						Model: model, Accel: accel, Mode: mode, Batch: batch,
						LossBudgetDB: req.LossBudgetDB,
					}, s.opts.MaxRequestBatch)
					if err != nil {
						return nil, nil, fmt.Errorf("point (%s, %s, %s, %d): %w",
							model, accel, mode, batch, err)
					}
					q, err := buildQuery(sr)
					if err != nil {
						return nil, nil, fmt.Errorf("point (%s, %s, %s, %d): %w",
							model, accel, mode, batch, err)
					}
					queries = append(queries, q)
					points = append(points, SweepPoint{
						Model: sr.Model, Accel: sr.Accel, Mode: sr.Mode, Batch: sr.Batch,
					})
				}
			}
		}
	}
	return queries, points, nil
}

// ModelInfo is one /v1/models entry.
type ModelInfo struct {
	Name      string `json:"name"`
	Canonical string `json:"canonical"`
	Layers    int    `json:"layers"`
}

// handleModels answers GET /v1/models with the servable model catalog.
func (s *Service) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	out := make([]ModelInfo, 0, len(modelCatalog))
	for _, e := range modelCatalog {
		out = append(out, ModelInfo{
			Name:      e.Name,
			Canonical: e.Canonical,
			Layers:    len(e.model().Layers),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// AccelInfo is one /v1/accelerators entry.
type AccelInfo struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Fingerprint string   `json:"fingerprint"`
	LossDB      *float64 `json:"worst_case_loss_db,omitempty"`
}

// handleAccelerators answers GET /v1/accelerators with the catalog,
// including each network's configuration fingerprint (the cache-key prefix)
// and, for photonic networks with a loss model, the worst-case insertion
// loss a loss_budget_db request field is checked against.
func (s *Service) handleAccelerators(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	out := make([]AccelInfo, 0, len(accelCatalog))
	for _, e := range accelCatalog {
		a := e.built()
		info := AccelInfo{Name: e.Name, Description: e.Description, Fingerprint: a.fp}
		if a.hasLoss {
			loss := a.lossDB
			info.LossDB = &loss
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}
