package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"

	"spacx/internal/exp"
)

func TestDecodeThermalRequest(t *testing.T) {
	req, err := decodeThermalRequest([]byte(`{"model": "alexnet"}`), 20000)
	if err != nil {
		t.Fatalf("minimal request rejected: %v", err)
	}
	if req.Mode != "whole" || req.Profile != exp.ProfileStep || req.Steps != 120 || req.StepSec != 1 {
		t.Fatalf("defaults not applied: %+v", req)
	}
	for name, body := range map[string]string{
		"empty":         `{}`,
		"unknown model": `{"model": "nope"}`,
		"unknown mode":  `{"model": "alexnet", "mode": "sideways"}`,
		"bad profile":   `{"model": "alexnet", "profile": "nope"}`,
		"steps over":    `{"model": "alexnet", "steps": 50}`,
		"neg steps":     `{"model": "alexnet", "steps": -1}`,
		"neg step_sec":  `{"model": "alexnet", "steps": 10, "step_sec": -2}`,
		"huge step_sec": `{"model": "alexnet", "steps": 10, "step_sec": 1e12}`,
		"inf step_sec":  `{"model": "alexnet", "steps": 10, "step_sec": 1e999}`,
		"sim time over": `{"model": "alexnet", "steps": 40, "step_sec": 100000}`,
		"unknown field": `{"model": "alexnet", "bogus": 1}`,
		"trailing":      `{"model": "alexnet"} {}`,
	} {
		if _, err := decodeThermalRequest([]byte(body), 40); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
	// A long but bounded replay is fine: the cap is on steps*step_sec.
	if _, err := decodeThermalRequest([]byte(`{"model": "alexnet", "steps": 10, "step_sec": 3600}`), 40); err != nil {
		t.Errorf("bounded long replay rejected: %v", err)
	}
}

// A sustained full-load replay through the HTTP surface must show the
// closed loop degrading throughput, and its step series must record the
// transitions in order: the heaters saturate strictly before the throttle
// engages.
func TestThermalEndpointThrottlesAndRecords(t *testing.T) {
	_, _, mux := newService(t, Options{Workers: 2})

	rr := doReq(mux, http.MethodPost, "/v1/thermal",
		`{"model": "alexnet", "mode": "layer", "profile": "step", "seed": 1, "steps": 180}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rr.Code, rr.Body)
	}
	var rep exp.ThermalReport
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	if rep.Schema != exp.ThermalReportSchema {
		t.Errorf("schema = %q", rep.Schema)
	}
	if len(rep.Series) != 180 {
		t.Fatalf("series length %d", len(rep.Series))
	}
	last := rep.Series[len(rep.Series)-1]
	if !last.Saturated || last.Throttle >= 1 {
		t.Errorf("full load did not saturate+throttle over HTTP: %+v", last)
	}
	sat, thr := -1, -1
	for i, pt := range rep.Series {
		if sat < 0 && pt.Saturated {
			sat = i
		}
		if thr < 0 && pt.Throttle < 1 {
			thr = i
		}
	}
	if sat < 0 || thr < 0 || sat >= thr {
		t.Errorf("first saturated step %d, first throttled step %d: want saturation strictly first", sat, thr)
	}

	if got := doReq(mux, http.MethodGet, "/v1/thermal", ""); got.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", got.Code)
	}
	if got := doReq(mux, http.MethodPost, "/v1/thermal", `{"model": "nope"}`); got.Code != http.StatusBadRequest {
		t.Errorf("bad model status = %d", got.Code)
	}
}

// Feedback off over HTTP: same replay, no degradation.
func TestThermalEndpointFeedbackOff(t *testing.T) {
	_, _, mux := newService(t, Options{Workers: 2})

	rr := doReq(mux, http.MethodPost, "/v1/thermal",
		`{"model": "alexnet", "profile": "step", "seed": 1, "steps": 60, "feedback": false}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rr.Code, rr.Body)
	}
	var rep exp.ThermalReport
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	for i, pt := range rep.Series {
		if pt.Throttle != 1 || pt.Saturated || pt.AchievedUtil != pt.OfferedUtil {
			t.Fatalf("step %d degraded with feedback off: %+v", i, pt)
		}
	}
}

func TestThermalEndpointStepCap(t *testing.T) {
	_, _, mux := newService(t, Options{Workers: 2, MaxThermalSteps: 10})
	rr := doReq(mux, http.MethodPost, "/v1/thermal", `{"model": "alexnet", "steps": 11}`)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("over-cap status = %d, body %s", rr.Code, rr.Body)
	}
	if rr = doReq(mux, http.MethodPost, "/v1/thermal", `{"model": "alexnet", "steps": 10}`); rr.Code != http.StatusOK {
		t.Fatalf("at-cap status = %d, body %s", rr.Code, rr.Body)
	}
}

// TestThermalBodyMatchesIndentedEncoding checks the streamed /v1/thermal
// body against json.Encoder with a two-space indent, byte for byte, so a
// field added to exp.ThermalPoint that the hand-written writer misses fails
// here. Rows with a request body go through the endpoint, their Want a
// direct replay of the same config; rows without one hand Want to
// exp.ThermalReport.WriteJSON itself. A row with Err must fail to encode,
// in both writers, with that error's text.
func TestThermalBodyMatchesIndentedEncoding(t *testing.T) {
	me, _ := modelByName("alexnet")
	replay := func(mode, profile string, steps int, stepSec float64, feedback bool) *exp.ThermalReport {
		rep, err := exp.ThermalReplay(exp.ThermalReplayConfig{
			Model: me.model(), Mode: modeOf(mode), Profile: profile,
			Seed: 7, Steps: steps, StepSec: stepSec, Feedback: feedback,
		})
		if err != nil {
			t.Fatalf("replay %s/%s/%d/%g/%v: %v", mode, profile, steps, stepSec, feedback, err)
		}
		return rep
	}
	request := func(mode, profile string, steps int, stepSec float64, feedback bool) string {
		return fmt.Sprintf(`{"model": "alexnet", "mode": %q, "profile": %q, "seed": 7, "steps": %d, "step_sec": %v, "feedback": %v}`,
			mode, profile, steps, stepSec, feedback)
	}

	var rows []tableTest[string, *exp.ThermalReport]
	for _, profile := range exp.Profiles() {
		for _, feedback := range []bool{true, false} {
			for _, mode := range []string{"whole", "layer"} {
				rows = append(rows, tableTest[string, *exp.ThermalReport]{
					Name: fmt.Sprintf("%s/feedback=%v/%s", profile, feedback, mode),
					Got:  request(mode, profile, 120, 10, feedback),
					Want: replay(mode, profile, 120, 10, feedback),
				})
			}
		}
	}
	rows = append(rows,
		tableTest[string, *exp.ThermalReport]{
			Name: "one step", Got: request("whole", exp.ProfileStep, 1, 10, true), Want: replay("whole", exp.ProfileStep, 1, 10, true),
		},
		// The smallest step puts exponent-form floats in the series
		// (TimeSec 5e-324) and in the summary (OfferedPoints 5.42e-321).
		tableTest[string, *exp.ThermalReport]{
			Name: "subnormal step", Got: request("whole", exp.ProfileStep, 1, 5e-324, true), Want: replay("whole", exp.ProfileStep, 1, 5e-324, true),
		},
	)
	short := replay("whole", exp.ProfileStep, 3, 10, true)
	edit := func(f func(series []exp.ThermalPoint)) *exp.ThermalReport {
		r := *short
		r.Series = append([]exp.ThermalPoint(nil), short.Series...)
		f(r.Series)
		return &r
	}
	empty, null, escaped := *short, *short, *short
	empty.Series = []exp.ThermalPoint{}
	null.Series = nil
	escaped.Model = `<alex&net>`
	rows = append(rows,
		tableTest[string, *exp.ThermalReport]{Name: "writer/empty series", Want: &empty},
		tableTest[string, *exp.ThermalReport]{Name: "writer/nil series", Want: &null},
		tableTest[string, *exp.ThermalReport]{Name: "writer/HTML-escaped model", Want: &escaped},
		tableTest[string, *exp.ThermalReport]{Name: "writer/nil node temps", Want: edit(func(s []exp.ThermalPoint) {
			s[1].NodeTempsK = nil
		})},
		tableTest[string, *exp.ThermalReport]{Name: "writer/empty node temps", Want: edit(func(s []exp.ThermalPoint) {
			s[0].NodeTempsK = []float64{}
		})},
		tableTest[string, *exp.ThermalReport]{Name: "writer/exponent-form floats", Want: edit(func(s []exp.ThermalPoint) {
			s[0].TimeSec, s[0].GBK, s[0].ExtraHeatingW = 1e21, -1e-7, math.Copysign(0, -1)
			s[2].PackageW = math.MaxFloat64
			s[2].NodeTempsK = append([]float64{5e-324, math.Nextafter(1e-6, 0)}, s[2].NodeTempsK...)
		})},
		tableTest[string, *exp.ThermalReport]{Name: "writer/NaN node temp", Err: &json.UnsupportedValueError{Str: "NaN"},
			Want: edit(func(s []exp.ThermalPoint) {
				s[2].NodeTempsK = append([]float64(nil), s[2].NodeTempsK...)
				s[2].NodeTempsK[3] = math.NaN()
			})},
		tableTest[string, *exp.ThermalReport]{Name: "writer/infinite margin", Err: &json.UnsupportedValueError{Str: "+Inf"},
			Want: edit(func(s []exp.ThermalPoint) {
				s[1].MarginDB = math.Inf(1)
			})},
	)

	_, _, mux := newService(t, Options{Workers: 2})
	for _, tc := range rows {
		t.Run(tc.Name, func(t *testing.T) {
			if tc.Skip {
				t.Skip()
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			encErr := enc.Encode(tc.Want)
			if tc.Err != nil {
				err := tc.Want.WriteJSON(io.Discard)
				if encErr == nil || encErr.Error() != tc.Err.Error() {
					t.Fatalf("reference encode error %v, want %v", encErr, tc.Err)
				}
				if err == nil || err.Error() != tc.Err.Error() {
					t.Fatalf("WriteJSON error %v, want %v", err, tc.Err)
				}
				return
			}
			if encErr != nil {
				t.Fatalf("reference encode: %v", encErr)
			}
			var got []byte
			if tc.Got != "" {
				rr := doReq(mux, http.MethodPost, "/v1/thermal", tc.Got)
				if rr.Code != http.StatusOK {
					t.Fatalf("status %d, body %s", rr.Code, rr.Body)
				}
				if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
					t.Fatalf("Content-Type %q", ct)
				}
				got = rr.Body.Bytes()
			} else {
				var buf bytes.Buffer
				if err := tc.Want.WriteJSON(&buf); err != nil {
					t.Fatalf("WriteJSON: %v", err)
				}
				got = buf.Bytes()
			}
			if !bytes.Equal(got, want.Bytes()) {
				i := 0
				for i < len(got) && i < len(want.Bytes()) && got[i] == want.Bytes()[i] {
					i++
				}
				t.Fatalf("body (%d bytes) differs from the indented encoding (%d bytes) at byte %d:\n%.200s\nvs\n%.200s",
					len(got), want.Len(), i, got[i:], want.Bytes()[i:])
			}
		})
	}
}
