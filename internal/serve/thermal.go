package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"

	"spacx/internal/exp"
)

// maxThermalSimSec caps the total simulated time (steps × step_sec) of one
// /v1/thermal replay at a week, a range check on the request. It does not
// bound the work: a replay costs O(steps), one exact RC update per step
// whatever step_sec is, so MaxThermalSteps is what bounds a request's cost.
const maxThermalSimSec = 7 * 24 * 3600

// ThermalRequest is the JSON body of POST /v1/thermal: a closed-loop
// thermal replay of a traffic profile against the SPACX accelerator. The
// response is the schema-versioned exp.ThermalReport time series.
type ThermalRequest struct {
	// Model is a catalog model name (see /v1/models), e.g. "alexnet".
	Model string `json:"model"`
	// Mode is the data-residency mode: "whole" (default) or "layer".
	Mode string `json:"mode,omitempty"`
	// Profile is the offered-load shape: "step" (default), "diurnal", or
	// "bursty".
	Profile string `json:"profile,omitempty"`
	// Seed fixes the profile's PRNG; identical requests replay identically.
	Seed int64 `json:"seed,omitempty"`
	// Steps is the replay length in integration steps (default 120, capped
	// by the server's MaxThermalSteps).
	Steps int `json:"steps,omitempty"`
	// StepSec is the wall-clock seconds each step integrates (default 1).
	StepSec float64 `json:"step_sec,omitempty"`
	// Feedback toggles the thermal→tuning→throttle loop; omitted means on.
	// With feedback off the replay integrates temperatures but never
	// derates — the static baseline.
	Feedback *bool `json:"feedback,omitempty"`
}

// decodeThermalRequest parses and validates a /v1/thermal body with the
// same strictness as decodeSimulateRequest: unknown fields, trailing data,
// out-of-range values, and unknown catalog names are all errors. The
// returned request is normalized (defaults filled in).
func decodeThermalRequest(data []byte, maxSteps int) (ThermalRequest, error) {
	var req ThermalRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return ThermalRequest{}, fmt.Errorf("decode request: %w", err)
	}
	if dec.More() {
		return ThermalRequest{}, fmt.Errorf("trailing data after request object")
	}
	if req.Model == "" {
		return ThermalRequest{}, fmt.Errorf("missing required field %q", "model")
	}
	if _, ok := modelByName(req.Model); !ok {
		return ThermalRequest{}, fmt.Errorf("unknown model %q (see /v1/models)", req.Model)
	}
	switch req.Mode {
	case "":
		req.Mode = "whole"
	case "whole", "layer":
	default:
		return ThermalRequest{}, fmt.Errorf("unknown mode %q (whole, layer)", req.Mode)
	}
	switch req.Profile {
	case "":
		req.Profile = exp.ProfileStep
	case exp.ProfileStep, exp.ProfileDiurnal, exp.ProfileBursty:
	default:
		return ThermalRequest{}, fmt.Errorf("unknown profile %q (%s)",
			req.Profile, strings.Join(exp.Profiles(), ", "))
	}
	if req.Steps == 0 {
		req.Steps = 120
	}
	if req.Steps < 1 || req.Steps > maxSteps {
		return ThermalRequest{}, fmt.Errorf("steps must be in [1, %d], got %d", maxSteps, req.Steps)
	}
	if req.StepSec == 0 {
		req.StepSec = 1
	}
	if math.IsNaN(req.StepSec) || math.IsInf(req.StepSec, 0) || req.StepSec <= 0 {
		return ThermalRequest{}, fmt.Errorf("step_sec must be a positive finite number, got %g", req.StepSec)
	}
	if simSec := float64(req.Steps) * req.StepSec; simSec > maxThermalSimSec {
		return ThermalRequest{}, fmt.Errorf("steps*step_sec must be <= %d simulated seconds, got %g", maxThermalSimSec, simSec)
	}
	return req, nil
}

// handleThermal answers POST /v1/thermal by running the closed-loop
// thermal replay synchronously. Replays are bounded (MaxThermalSteps steps,
// maxThermalSimSec simulated seconds) and cheap — one analytical model
// evaluation plus an RC integration that costs O(steps) — so they bypass
// the admission queue; the model is the catalog's shared, read-only value.
// Each step of the report carries its Throttle and Saturated state. The
// body is streamed by exp.ThermalReport.WriteJSON.
func (s *Service) handleThermal(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	data, err := readBody(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	req, err := decodeThermalRequest(data, s.opts.MaxThermalSteps)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	me, _ := modelByName(req.Model)
	feedback := true
	if req.Feedback != nil {
		feedback = *req.Feedback
	}
	rep, err := exp.ThermalReplay(exp.ThermalReplayConfig{
		Model:    me.model(),
		Mode:     modeOf(req.Mode),
		Profile:  req.Profile,
		Seed:     req.Seed,
		Steps:    req.Steps,
		StepSec:  req.StepSec,
		Feedback: feedback,
	})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "thermal replay: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// Past the status line a failed write has no one to report to.
	_ = rep.WriteJSON(w)
}
