package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"spacx/internal/exp"
)

func TestDecodeSimulateRequestNormalizes(t *testing.T) {
	req, err := decodeSimulateRequest([]byte(`{"model": "resnet50", "accel": "popstar"}`), 256)
	if err != nil {
		t.Fatal(err)
	}
	if req.Mode != "whole" {
		t.Fatalf("default mode = %q, want whole", req.Mode)
	}
	if req.Batch != 1 {
		t.Fatalf("default batch = %d, want 1", req.Batch)
	}
}

func TestDecodeSimulateRequestRejects(t *testing.T) {
	cases := map[string]string{
		"empty":          ``,
		"not json":       `hello`,
		"array":          `[1, 2]`,
		"unknown field":  `{"model": "resnet50", "accel": "spacx", "extra": true}`,
		"trailing":       `{"model": "resnet50", "accel": "spacx"} null`,
		"no model":       `{"accel": "spacx"}`,
		"no accel":       `{"model": "resnet50"}`,
		"bad mode":       `{"model": "resnet50", "accel": "spacx", "mode": "fast"}`,
		"batch low":      `{"model": "resnet50", "accel": "spacx", "batch": -2}`,
		"batch zero":     `{"model": "resnet50", "accel": "spacx", "batch": 0}`,
		"batch high":     `{"model": "resnet50", "accel": "spacx", "batch": 257}`,
		"negative loss":  `{"model": "resnet50", "accel": "spacx", "loss_budget_db": -0.5}`,
		"wrong type":     `{"model": 7, "accel": "spacx"}`,
		"nested garbage": `{"model": {"a": 1}, "accel": "spacx"}`,
	}
	for name, body := range cases {
		if _, err := decodeSimulateRequest([]byte(body), 256); err == nil {
			t.Errorf("%s: decode accepted %q", name, body)
		}
	}
}

func TestBuildQueryKeysAreDistinct(t *testing.T) {
	reqs := []SimulateRequest{
		{Model: "alexnet", Accel: "spacx", Mode: "whole", Batch: 1},
		{Model: "alexnet", Accel: "spacx", Mode: "whole", Batch: 2},
		{Model: "alexnet", Accel: "spacx", Mode: "layer", Batch: 1},
		{Model: "alexnet", Accel: "simba", Mode: "whole", Batch: 1},
		{Model: "vgg16", Accel: "spacx", Mode: "whole", Batch: 1},
		{Model: "alexnet", Accel: "spacx-noba", Mode: "whole", Batch: 1},
	}
	seen := map[string]SimulateRequest{}
	for _, r := range reqs {
		q, err := buildQuery(r)
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		if prev, dup := seen[q.key]; dup {
			t.Fatalf("key collision between %+v and %+v: %q", prev, r, q.key)
		}
		seen[q.key] = r
		if !strings.Contains(q.key, r.Model) || !strings.Contains(q.key, r.Accel) {
			t.Fatalf("key %q does not name its model and accelerator", q.key)
		}
	}
}

func TestEncodeSimulateResponseDeterministic(t *testing.T) {
	q, err := buildQuery(SimulateRequest{Model: "alexnet", Accel: "spacx", Mode: "whole", Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.req.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := encodeSimulateResponse(q, res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeSimulateResponse(q, res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("re-encoding the same result changed the bytes")
	}
	if a[len(a)-1] != '\n' {
		t.Fatal("response body is not newline-terminated")
	}
}

func TestCatalogsBuild(t *testing.T) {
	for _, e := range modelCatalog {
		m := e.build()
		if len(m.Layers) == 0 {
			t.Errorf("model %s builds empty", e.Name)
		}
	}
	for _, e := range accelCatalog {
		acc := e.build()
		if acc.Arch.Net == nil {
			t.Errorf("accelerator %s builds without a network", e.Name)
		}
		if _, err := buildQuery(SimulateRequest{Model: "alexnet", Accel: e.Name, Mode: "whole", Batch: 1}); err != nil {
			t.Errorf("accelerator %s does not resolve: %v", e.Name, err)
		}
	}
	if loss, ok := spacxWorstCaseLoss(); !ok || loss <= 0 {
		t.Errorf("spacx worst-case loss = %v, %v; want positive", loss, ok)
	}
}

// FuzzSimulateRequest drives the /v1/simulate decoder with arbitrary bytes:
// it must return a clean error (never panic), and anything it accepts must
// be fully normalized and within the validated ranges.
func FuzzSimulateRequest(f *testing.F) {
	f.Add([]byte(`{"model": "alexnet", "accel": "spacx"}`))
	f.Add([]byte(`{"model": "resnet50", "accel": "simba", "mode": "layer", "batch": 8}`))
	f.Add([]byte(`{"model": "vgg16", "accel": "popstar", "loss_budget_db": 3.5}`))
	f.Add([]byte(`{"model": "", "accel": ""}`))
	f.Add([]byte(`{"model": "alexnet", "accel": "spacx", "batch": -1}`))
	f.Add([]byte(`{"model": "alexnet", "accel": "spacx"} trailing`))
	f.Add([]byte(`{"unknown": true}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte("\xff\xfe invalid utf8"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeSimulateRequest(data, 256)
		if err != nil {
			return
		}
		if _, ok := modelByName(req.Model); !ok {
			t.Fatalf("accepted unknown model %q", req.Model)
		}
		if _, ok := accelByName(req.Accel); !ok {
			t.Fatalf("accepted unknown accelerator %q", req.Accel)
		}
		if req.Mode != "whole" && req.Mode != "layer" {
			t.Fatalf("accepted unnormalized mode %q", req.Mode)
		}
		if req.Batch < 1 || req.Batch > 256 {
			t.Fatalf("accepted out-of-range batch %d", req.Batch)
		}
		if req.LossBudgetDB < 0 {
			t.Fatalf("accepted negative loss budget %g", req.LossBudgetDB)
		}
		// Accepted requests must also resolve and validate at the sim layer.
		q, err := buildQuery(req)
		if err != nil {
			t.Fatalf("accepted request does not build a query: %v", err)
		}
		if err := q.req.Validate(); err != nil {
			t.Fatalf("accepted request fails sim validation: %v", err)
		}
	})
}

// FuzzSweepPoint pins the sweep's direct point check to the /v1/simulate
// decoder it replaced: for any model, accelerator, mode, batch and finite
// loss budget, with strings of valid UTF-8 (all a decoded SweepRequest can
// hold), checkSimulateRequest returns the same request and the same error
// text as decodeSimulateRequest of the JSON-encoded request.
func FuzzSweepPoint(f *testing.F) {
	f.Add("alexnet", "spacx", "", 1, 0.0)
	f.Add("resnet50", "simba", "layer", 8, 3.5)
	f.Add("vgg16", "popstar", "whole", 256, 1e-300)
	f.Add("", "", "", 0, 0.0)
	f.Add("lenet", "spacx", "fast", 257, -0.5)
	f.Add("alexnet", "tpu<&>", "whole", -1, 2.0)
	f.Add("alexnet", "spacx", "fast ", 1<<40, -1e308)
	f.Fuzz(func(t *testing.T, model, accel, mode string, batch int, loss float64) {
		if !utf8.ValidString(model) || !utf8.ValidString(accel) || !utf8.ValidString(mode) ||
			math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Skip()
		}
		req := SimulateRequest{Model: model, Accel: accel, Mode: mode, Batch: batch, LossBudgetDB: loss}
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := decodeSimulateRequest(data, 256)
		got, gotErr := checkSimulateRequest(req, 256)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("check of %+v = (%+v, %v), decode of %s = (%+v, %v)",
				req, got, gotErr, data, want, wantErr)
		}
	})
}

// FuzzThermalRequest checks the /v1/thermal decoder: it never panics, and a
// request it accepts names a catalog model, a mode of whole or layer and a
// profile from exp.Profiles(), with steps in [1, maxSteps] and a finite
// step_sec above zero. An accepted request is normalized, so decoding its
// JSON encoding gives the same request back.
func FuzzThermalRequest(f *testing.F) {
	const maxSteps = 720
	f.Add([]byte(`{"model": "alexnet"}`))
	f.Add([]byte(`{"model": "resnet50", "mode": "layer", "profile": "diurnal", "steps": 720, "step_sec": 10}`))
	f.Add([]byte(`{"model": "vgg16", "profile": "bursty", "seed": -7, "feedback": false}`))
	f.Add([]byte(`{"model": "alexnet", "steps": 721}`))
	f.Add([]byte(`{"model": "alexnet", "step_sec": -1}`))
	f.Add([]byte(`{"model": "alexnet", "steps": 2, "step_sec": 1e308}`))
	f.Add([]byte(`{"model": "alexnet", "profile": "sine"}`))
	f.Add([]byte(`{"model": "alexnet", "mode": "fast"}`))
	f.Add([]byte(`{"model": "alexnet"} trailing`))
	f.Add([]byte(`{"unknown": true}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeThermalRequest(data, maxSteps)
		if err != nil {
			return
		}
		if _, ok := modelByName(req.Model); !ok {
			t.Fatalf("accepted unknown model %q", req.Model)
		}
		if req.Mode != "whole" && req.Mode != "layer" {
			t.Fatalf("accepted unnormalized mode %q", req.Mode)
		}
		if !slices.Contains(exp.Profiles(), req.Profile) {
			t.Fatalf("accepted unknown profile %q", req.Profile)
		}
		if req.Steps < 1 || req.Steps > maxSteps {
			t.Fatalf("accepted out-of-range steps %d", req.Steps)
		}
		if math.IsNaN(req.StepSec) || math.IsInf(req.StepSec, 0) || req.StepSec <= 0 {
			t.Fatalf("accepted step_sec %g", req.StepSec)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeThermalRequest(enc, maxSteps)
		if err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("decode of %s = (%+v, %v), want %+v", enc, again, err, req)
		}
	})
}
