package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"spacx/internal/sim"
)

// tableTest is one row of a table-driven test: Got is the input under
// test, Want what it must produce, and a non-nil Err marks a misuse row that
// must fail with that error instead.
type tableTest[G any, W any] struct {
	Name string
	Got  G
	Want W
	Err  error
	Skip bool
}

// directBody answers req the way no cache can: a sim.Request.Run on a
// freshly built model and accelerator, encoded the way the benchmark's
// reference encodes it — the layer count and the DRAM bytes come from the
// per-layer results, not from the totals the service encodes.
func directBody(t *testing.T, req SimulateRequest) []byte {
	t.Helper()
	me, _ := modelByName(req.Model)
	ae, _ := accelByName(req.Accel)
	res, err := sim.Request{
		Accel: ae.build(), Model: me.build(), Mode: modeOf(req.Mode), Batch: req.Batch,
	}.Run(nil)
	if err != nil {
		t.Fatalf("direct run of %+v: %v", req, err)
	}
	resp := SimulateResponse{
		Model: req.Model, Accel: req.Accel, Mode: req.Mode, Batch: req.Batch,
		Layers:         len(res.Layers),
		ExecSec:        res.ExecSec,
		ComputeSec:     res.ComputeSec,
		CommSec:        res.CommSec,
		TotalEnergyJ:   res.TotalEnergy,
		ComputeEnergyJ: res.ComputeEnergy,
		NetworkEnergyJ: res.NetworkEnergy,
	}
	for _, lr := range res.Layers {
		resp.DRAMBytes += lr.DRAMBytes * int64(lr.Layer.Repeat)
	}
	if loss, ok := ae.lossDB(); ok {
		resp.WorstCaseLossDB = &loss
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// TestServedBodiesMatchDirectRun checks every catalog model × accelerator ×
// mode, at batch 1 and at a seeded random batch in [2, 256]: the first
// request (a miss, simulated on the shared catalog values) and the second
// (a response-cache hit) must both be byte-identical to a direct run on
// freshly built values. Misuse rows must get a 4xx naming the problem.
func TestServedBodiesMatchDirectRun(t *testing.T) {
	const seed = 15
	rng := rand.New(rand.NewSource(seed))
	var rows []tableTest[string, []byte]
	for _, me := range modelCatalog {
		for _, ae := range accelCatalog {
			for _, mode := range []string{"whole", "layer"} {
				for _, batch := range []int{1, 2 + rng.Intn(255)} {
					req := SimulateRequest{Model: me.Name, Accel: ae.Name, Mode: mode, Batch: batch}
					body, err := json.Marshal(req)
					if err != nil {
						t.Fatal(err)
					}
					rows = append(rows, tableTest[string, []byte]{
						Name: fmt.Sprintf("%s/%s/%s/b%d", me.Name, ae.Name, mode, batch),
						Got:  string(body),
						Want: directBody(t, req),
					})
				}
			}
		}
	}
	rows = append(rows,
		tableTest[string, []byte]{Name: "unknown model", Got: `{"model": "lenet", "accel": "spacx"}`,
			Err: errors.New(`unknown model "lenet"`)},
		tableTest[string, []byte]{Name: "batch 0", Got: `{"model": "alexnet", "accel": "spacx", "batch": 0}`,
			Err: errors.New("batch must be in [1, 256], got 0")},
		tableTest[string, []byte]{Name: "batch 257", Got: `{"model": "alexnet", "accel": "spacx", "batch": 257}`,
			Err: errors.New("batch must be in [1, 256], got 257")},
		tableTest[string, []byte]{Name: "trailing object", Got: `{"model": "alexnet", "accel": "spacx"} {"model": "vgg16", "accel": "spacx"}`,
			Err: errors.New("trailing data")},
	)

	_, _, mux := newService(t, Options{Workers: 2})
	for _, tc := range rows {
		t.Run(tc.Name, func(t *testing.T) {
			if tc.Skip {
				t.Skip()
			}
			if tc.Err != nil {
				rr := doReq(mux, http.MethodPost, "/v1/simulate", tc.Got)
				if rr.Code < 400 || rr.Code > 499 {
					t.Fatalf("status %d, want 4xx (body %s)", rr.Code, rr.Body)
				}
				var e errorResponse
				if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, tc.Err.Error()) {
					t.Fatalf("error body %q does not name %q (%v)", rr.Body, tc.Err, err)
				}
				return
			}
			for _, wantSrc := range []string{"miss", "hit"} {
				rr := doReq(mux, http.MethodPost, "/v1/simulate", tc.Got)
				if rr.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", wantSrc, rr.Code, rr.Body)
				}
				if src := rr.Header().Get("X-Spacx-Cache"); src != wantSrc {
					t.Fatalf("X-Spacx-Cache = %q, want %q", src, wantSrc)
				}
				if !bytes.Equal(rr.Body.Bytes(), tc.Want) {
					t.Fatalf("%s body differs from a direct run (seed %d):\n%s\nvs\n%s", wantSrc, seed, rr.Body, tc.Want)
				}
			}
		})
	}
}

// TestSharedCatalogUnderConcurrentRequests drives every endpoint that reads
// the shared catalog — /v1/simulate over every model × accelerator at batch
// 1 and 64, /v1/sweep, /v1/thermal, /v1/models and /v1/accelerators — from
// many goroutines at once (run it under -race), then checks no request
// leaked a batch or anything else into a shared value: every catalog model
// and accelerator still equals a freshly built one.
func TestSharedCatalogUnderConcurrentRequests(t *testing.T) {
	_, _, mux := newService(t, Options{Workers: 4, MaxSweepPoints: 16})

	type call struct{ method, path, body string }
	var calls []call
	for _, me := range modelCatalog {
		for _, ae := range accelCatalog {
			for _, batch := range []int{1, 64} {
				calls = append(calls, call{http.MethodPost, "/v1/simulate",
					fmt.Sprintf(`{"model": %q, "accel": %q, "batch": %d}`, me.Name, ae.Name, batch)})
			}
		}
	}
	calls = append(calls,
		call{http.MethodPost, "/v1/sweep", `{"models": ["alexnet", "mobilenetv2"], "accels": ["spacx", "simba"], "modes": ["whole", "layer"], "batches": [1, 64]}`},
		call{http.MethodPost, "/v1/thermal", `{"model": "alexnet", "steps": 10}`},
		call{http.MethodPost, "/v1/thermal", `{"model": "mobilenetv2", "mode": "layer", "steps": 10}`},
		call{http.MethodGet, "/v1/models", ""},
		call{http.MethodGet, "/v1/accelerators", ""},
	)

	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks every call from its own offset, so the
			// same entries are built, read and simulated concurrently.
			for k := range calls {
				c := calls[(k+g*len(calls)/goroutines)%len(calls)]
				rr := doReq(mux, c.method, c.path, c.body)
				if rr.Code != http.StatusOK {
					t.Errorf("%s %s %s: status %d: %s", c.method, c.path, c.body, rr.Code, rr.Body)
					return
				}
				if c.path == "/v1/sweep" && strings.Contains(rr.Body.String(), `"error"`) {
					t.Errorf("sweep point failed: %s", rr.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	for _, me := range modelCatalog {
		if got, fresh := me.model(), me.build(); !reflect.DeepEqual(got.Layers, fresh.Layers) {
			t.Errorf("shared %s layers changed under concurrent requests", me.Name)
		}
	}
	for _, ae := range accelCatalog {
		if got, fresh := ae.built().acc, ae.build(); !reflect.DeepEqual(got, fresh) {
			t.Errorf("shared %s accelerator changed under concurrent requests", ae.Name)
		}
	}
}
