package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// maxJobBody bounds submitted job bodies; sweep grids are small.
const maxJobBody = 1 << 20

// Instrumenter matches serve.Service.Instrument: the middleware that gives
// every job endpoint the request counter, latency histogram, and trace.
type Instrumenter func(endpoint string, h http.HandlerFunc) http.HandlerFunc

// Routes mounts the job API on mux. Pass serve.Service.Instrument so job
// requests are traced and counted like every other /v1 endpoint; a nil
// instrument mounts the bare handlers.
func (m *Manager) Routes(mux *http.ServeMux, instrument Instrumenter) {
	if instrument == nil {
		instrument = func(_ string, h http.HandlerFunc) http.HandlerFunc { return h }
	}
	mux.HandleFunc("POST /v1/jobs", instrument("jobs_submit", m.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", instrument("jobs_list", m.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", instrument("jobs_get", m.handleGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", instrument("jobs_cancel", m.handleCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/events", instrument("jobs_events", m.handleEvents))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit answers POST /v1/jobs: the body is a /v1/sweep request; the
// response is 202 with the job's initial status and a Location header.
func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJobBody))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	j, err := m.Submit(body)
	switch {
	case err == nil:
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "too many live jobs; retry later")
		return
	case errors.Is(err, ErrClosed):
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusAccepted, j.Status())
}

// handleList answers GET /v1/jobs with every tracked job, newest first: the
// live ones and the newest Keep terminal ones.
func (m *Manager) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, m.List())
}

// jobDetail is the GET /v1/jobs/{id} body: the status plus, for done jobs,
// the full sweep result.
type jobDetail struct {
	Status
	Result json.RawMessage `json:"result,omitempty"`
}

// handleGet answers GET /v1/jobs/{id}.
func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, jobDetail{Status: j.Status(), Result: j.Result()})
}

// handleCancel answers DELETE /v1/jobs/{id}: 202 when cancellation was
// initiated, 409 when the job already reached a terminal state.
func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cancelled, err := m.Cancel(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	j, _ := m.Get(id)
	if !cancelled {
		writeJSON(w, http.StatusConflict, j.Status())
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

// handleEvents answers GET /v1/jobs/{id}/events with an SSE stream
// (text/event-stream) of the job's live progress: one "progress" event per
// change in done-point count or state (rate and ETA ride along, straight
// from the engine phase counters), a comment heartbeat while idle, and a
// final event named after the terminal state ("done", "failed",
// "cancelled") before the stream closes.
//
// Every write happens against a buffered snapshot with a per-write
// deadline: a slow or stalled client is disconnected after WriteTimeout
// instead of pinning the handler goroutine (and whatever locks a naive
// implementation would hold) for the life of the connection.
func (m *Manager) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	// ResponseController reaches the real connection through Unwrap even
	// when the handler runs behind the instrumentation wrapper.
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	flush := func() error {
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return err
		}
		return nil
	}
	// send renders the event into memory first, then writes it under a
	// deadline — the buffered-snapshot half of the slow-client defense.
	send := func(event string, v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		buf := make([]byte, 0, len(data)+len(event)+16)
		buf = append(buf, "event: "...)
		buf = append(buf, event...)
		buf = append(buf, "\ndata: "...)
		buf = append(buf, data...)
		buf = append(buf, "\n\n"...)
		if err := rc.SetWriteDeadline(time.Now().Add(m.opts.WriteTimeout)); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		return flush()
	}
	heartbeat := func() error {
		if err := rc.SetWriteDeadline(time.Now().Add(m.opts.WriteTimeout)); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return err
		}
		if _, err := io.WriteString(w, ": ping "+strconv.FormatInt(time.Now().Unix(), 10)+"\n\n"); err != nil {
			return err
		}
		return flush()
	}

	st := j.Status()
	if err := send("progress", st); err != nil {
		return
	}
	lastDone, lastState := st.DonePoints, st.State
	lastWrite := time.Now()

	tick := time.NewTicker(m.opts.PollInterval)
	defer tick.Stop()
	for {
		if lastState.Terminal() {
			_ = send(string(lastState), j.Status())
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-j.Done():
			// Fall through to the terminal event on the next iteration.
			lastState = j.State()
		case <-tick.C:
			st := j.Status()
			switch {
			case st.DonePoints != lastDone || st.State != lastState:
				if err := send("progress", st); err != nil {
					return
				}
				lastDone, lastState = st.DonePoints, st.State
				lastWrite = time.Now()
			case time.Since(lastWrite) >= m.opts.Heartbeat:
				if err := heartbeat(); err != nil {
					return
				}
				lastWrite = time.Now()
			}
		}
	}
}
