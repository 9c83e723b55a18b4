package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"spacx/internal/exp/engine"
	"spacx/internal/obs"
)

// newService builds a started service on a registry-backed recorder and a
// mux with the /v1 routes. Close is registered as cleanup.
func newService(t *testing.T, opts Options) (*Service, *obs.Registry, *http.ServeMux) {
	t.Helper()
	reg := obs.NewRegistry(nil)
	opts.Recorder = reg
	s := New(opts)
	s.Start(context.Background())
	t.Cleanup(s.Close)
	mux := http.NewServeMux()
	s.Routes(mux)
	return s, reg, mux
}

func doReq(mux *http.ServeMux, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	return rr
}

const alexOnSpacx = `{"model": "alexnet", "accel": "spacx"}`

func TestCachedRepeatIsByteIdenticalAndCountsHit(t *testing.T) {
	_, reg, mux := newService(t, Options{Workers: 2})

	first := doReq(mux, http.MethodPost, "/v1/simulate", alexOnSpacx)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", first.Code, first.Body)
	}
	if src := first.Header().Get("X-Spacx-Cache"); src != "miss" {
		t.Fatalf("first request X-Spacx-Cache = %q, want miss", src)
	}

	second := doReq(mux, http.MethodPost, "/v1/simulate", alexOnSpacx)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: status %d, body %s", second.Code, second.Body)
	}
	if src := second.Header().Get("X-Spacx-Cache"); src != "hit" {
		t.Fatalf("second request X-Spacx-Cache = %q, want hit", src)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("cached repeat is not byte-identical:\n%s\nvs\n%s", first.Body, second.Body)
	}
	if got := reg.Counter("spacx_serve_cache_hits_total"); got != 1 {
		t.Fatalf("cache hits = %v, want 1", got)
	}
	if got := reg.Counter("spacx_serve_engine_runs_total"); got != 1 {
		t.Fatalf("engine runs = %v, want 1", got)
	}

	var resp SimulateResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if resp.Model != "alexnet" || resp.Accel != "spacx" || resp.Mode != "whole" || resp.Batch != 1 {
		t.Fatalf("response identity = %+v", resp)
	}
	if resp.ExecSec <= 0 || resp.Layers == 0 || resp.DRAMBytes <= 0 {
		t.Fatalf("response has empty results: %+v", resp)
	}
	if resp.WorstCaseLossDB == nil || *resp.WorstCaseLossDB <= 0 {
		t.Fatalf("spacx response should carry a worst-case loss, got %+v", resp.WorstCaseLossDB)
	}
}

func TestConcurrentIdenticalRequestsRunOneSimulation(t *testing.T) {
	_, reg, mux := newService(t, Options{Workers: 4})

	const n = 16
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			rr := doReq(mux, http.MethodPost, "/v1/simulate", alexOnSpacx)
			if rr.Code != http.StatusOK {
				t.Errorf("request %d: status %d, body %s", i, rr.Code, rr.Body)
				return
			}
			bodies[i] = rr.Body.Bytes()
		}(i)
	}
	wg.Wait()

	if got := reg.Counter("spacx_serve_engine_runs_total"); got != 1 {
		t.Fatalf("engine runs = %v, want exactly 1 for %d identical requests", got, n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
}

func TestQueueOverflowRejectsWith429AndRetryAfter(t *testing.T) {
	// Not started: the queue never drains, so one in-flight job fills it.
	reg := obs.NewRegistry(nil)
	s := New(Options{QueueDepth: 1, Recorder: reg})
	mux := http.NewServeMux()
	s.Routes(mux)

	occupied := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		occupied <- doReq(mux, http.MethodPost, "/v1/simulate", alexOnSpacx)
	}()
	// Wait for the first job to land in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	before := runtime.NumGoroutine()
	const overflow = 100
	for i := 0; i < overflow; i++ {
		body := fmt.Sprintf(`{"model": "alexnet", "accel": "spacx", "batch": %d}`, i+2)
		rr := doReq(mux, http.MethodPost, "/v1/simulate", body)
		if rr.Code != http.StatusTooManyRequests {
			t.Fatalf("overflow request %d: status %d, want 429 (body %s)", i, rr.Code, rr.Body)
		}
		if rr.Header().Get("Retry-After") == "" {
			t.Fatalf("overflow request %d: missing Retry-After header", i)
		}
	}
	// Rejections are synchronous; goroutine count must not scale with the
	// number of rejected requests.
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Fatalf("goroutines grew from %d to %d across %d rejections", before, after, overflow)
	}
	if got := reg.Counter("spacx_serve_queue_rejected_total"); got != overflow {
		t.Fatalf("rejected counter = %v, want %d", got, overflow)
	}

	// Start the workers so the occupied job completes, then drain.
	s.Start(context.Background())
	rr := <-occupied
	if rr.Code != http.StatusOK {
		t.Fatalf("queued request after start: status %d, body %s", rr.Code, rr.Body)
	}
	s.Close()
}

func TestCloseDrainsQueuedWorkThenRejects(t *testing.T) {
	reg := obs.NewRegistry(nil)
	s := New(Options{Workers: 2, Recorder: reg})
	s.Start(context.Background())
	mux := http.NewServeMux()
	s.Routes(mux)

	rr := doReq(mux, http.MethodPost, "/v1/simulate", alexOnSpacx)
	if rr.Code != http.StatusOK {
		t.Fatalf("pre-drain request: status %d, body %s", rr.Code, rr.Body)
	}

	s.Close()
	if !s.Draining() {
		t.Fatal("Draining() = false after Close")
	}

	// Cached responses still serve after drain; new work is refused.
	hit := doReq(mux, http.MethodPost, "/v1/simulate", alexOnSpacx)
	if hit.Code != http.StatusOK || hit.Header().Get("X-Spacx-Cache") != "hit" {
		t.Fatalf("cached request during drain: status %d, cache %q",
			hit.Code, hit.Header().Get("X-Spacx-Cache"))
	}
	fresh := doReq(mux, http.MethodPost, "/v1/simulate", `{"model": "alexnet", "accel": "simba"}`)
	if fresh.Code != http.StatusServiceUnavailable {
		t.Fatalf("fresh request during drain: status %d, want 503", fresh.Code)
	}
	if fresh.Header().Get("Retry-After") == "" {
		t.Fatal("503 during drain is missing Retry-After")
	}
}

// TestCloseNeverStrandsAdmittedMiss is the drain-race regression test. Each
// service fires distinct misses at once and then closes: a leader admitted
// while Close runs must either reach a queue the workers still drain or get
// errDraining, so every waiter returns and no flight outlives Close. One
// service rarely hits the window, so each row loops over many; the rows
// cover one worker and a pool whose workers race each other to the drain.
// Close must also wait for every worker's drain: it returns with the queue
// empty and every job a worker picked up answered.
func TestCloseNeverStrandsAdmittedMiss(t *testing.T) {
	const services, misses = 1500, 32
	queries := make([]query, misses)
	for i := range queries {
		q, err := buildQuery(SimulateRequest{Model: "alexnet", Accel: "spacx", Mode: "whole", Batch: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers %d", workers), func(t *testing.T) {
			for n := 0; n < services; n++ {
				prog := engine.NewProgress()
				s := New(Options{Workers: workers, QueueDepth: misses, Progress: prog})
				s.Start(context.Background())
				ctx, cancel := context.WithCancel(context.Background())
				start := make(chan struct{})
				errs := make(chan error, misses)
				var wg sync.WaitGroup
				for _, q := range queries {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						body, _, err := s.resolve(ctx, q)
						if err == nil && body == nil {
							err = errors.New("empty body")
						}
						if err != nil && !errors.Is(err, errDraining) && !errors.Is(err, errQueueFull) {
							errs <- err
						}
					}()
				}
				close(start)
				s.Close()
				if left := len(s.queue); left != 0 {
					t.Fatalf("service %d: Close returned with %d jobs still queued", n, left)
				}
				if ph := prog.Status().Phases[0]; ph.Done != ph.Total {
					t.Fatalf("service %d: Close returned with %d of %d picked-up jobs answered", n, ph.Done, ph.Total)
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					cancel() // release the stranded waiters so they can be reported
					<-done
				}
				cancel()
				close(errs)
				for err := range errs {
					t.Fatalf("service %d: a waiter got %v, want a body, errDraining or errQueueFull", n, err)
				}
				s.cache.mu.Lock()
				left := len(s.cache.flights)
				s.cache.mu.Unlock()
				if left != 0 {
					t.Fatalf("service %d: %d flights left after Close", n, left)
				}
			}
		})
	}
}

// TestHardCancelFailsWaiters queues distinct misses on a stopped service,
// then starts it on a cancelled context: every worker must fail whatever it
// picks up with the cancellation, release every waiter, and exit. The
// "serve" progress phase counts each failed job as submitted, never started.
func TestHardCancelFailsWaiters(t *testing.T) {
	const queued = 6
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers %d", workers), func(t *testing.T) {
			prog := engine.NewProgress()
			s := New(Options{Workers: workers, Progress: prog})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()

			errc := make(chan error, queued)
			for i := 0; i < queued; i++ {
				q, err := buildQuery(SimulateRequest{Model: "alexnet", Accel: "spacx", Mode: "whole", Batch: i + 1})
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					_, _, err := s.resolve(context.Background(), q)
					errc <- err
				}()
			}
			// Let every job enqueue, then start the pool on a dead context.
			deadline := time.Now().Add(5 * time.Second)
			for len(s.queue) < queued {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d jobs reached the queue", len(s.queue), queued)
				}
				time.Sleep(time.Millisecond)
			}
			s.Start(ctx)
			for i := 0; i < queued; i++ {
				select {
				case err := <-errc:
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("waiter error = %v, want context.Canceled", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%d of %d waiters never released after hard cancel", queued-i, queued)
				}
			}
			select {
			case <-s.done:
			case <-time.After(10 * time.Second):
				t.Fatal("workers never exited after hard cancel")
			}
			if ph := prog.Status().Phases[0]; ph.Total != queued || ph.Started != 0 {
				t.Fatalf("serve phase: %d submitted, %d started; want %d, 0", ph.Total, ph.Started, queued)
			}
		})
	}
}

func TestSimulateValidation(t *testing.T) {
	_, _, mux := newService(t, Options{})
	cases := []struct {
		name   string
		method string
		body   string
		code   int
	}{
		{"bad json", http.MethodPost, `{`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, `{"model": "alexnet", "accel": "spacx", "nope": 1}`, http.StatusBadRequest},
		{"trailing data", http.MethodPost, `{"model": "alexnet", "accel": "spacx"} {}`, http.StatusBadRequest},
		{"missing model", http.MethodPost, `{"accel": "spacx"}`, http.StatusBadRequest},
		{"unknown model", http.MethodPost, `{"model": "lenet", "accel": "spacx"}`, http.StatusBadRequest},
		{"missing accel", http.MethodPost, `{"model": "alexnet"}`, http.StatusBadRequest},
		{"unknown accel", http.MethodPost, `{"model": "alexnet", "accel": "tpu"}`, http.StatusBadRequest},
		{"bad mode", http.MethodPost, `{"model": "alexnet", "accel": "spacx", "mode": "half"}`, http.StatusBadRequest},
		{"negative batch", http.MethodPost, `{"model": "alexnet", "accel": "spacx", "batch": -1}`, http.StatusBadRequest},
		{"oversized batch", http.MethodPost, `{"model": "alexnet", "accel": "spacx", "batch": 100000}`, http.StatusBadRequest},
		{"negative loss budget", http.MethodPost, `{"model": "alexnet", "accel": "spacx", "loss_budget_db": -1}`, http.StatusBadRequest},
		{"wrong method", http.MethodGet, ``, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := doReq(mux, tc.method, "/v1/simulate", tc.body)
			if rr.Code != tc.code {
				t.Fatalf("status %d, want %d (body %s)", rr.Code, tc.code, rr.Body)
			}
			var e errorResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q is not an errorResponse (%v)", rr.Body, err)
			}
		})
	}
}

func TestLossBudgetEnforcement(t *testing.T) {
	_, _, mux := newService(t, Options{})

	// An impossibly tight budget rejects photonic SPACX with 422.
	rr := doReq(mux, http.MethodPost, "/v1/simulate",
		`{"model": "alexnet", "accel": "spacx", "loss_budget_db": 0.001}`)
	if rr.Code != http.StatusUnprocessableEntity {
		t.Fatalf("tight budget on spacx: status %d, want 422 (body %s)", rr.Code, rr.Body)
	}

	// The same budget is a no-op for an accelerator without a loss model.
	rr = doReq(mux, http.MethodPost, "/v1/simulate",
		`{"model": "alexnet", "accel": "simba", "loss_budget_db": 0.001}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("tight budget on simba: status %d, want 200 (body %s)", rr.Code, rr.Body)
	}

	// A generous budget passes.
	rr = doReq(mux, http.MethodPost, "/v1/simulate",
		`{"model": "alexnet", "accel": "spacx", "loss_budget_db": 100}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("generous budget on spacx: status %d, want 200 (body %s)", rr.Code, rr.Body)
	}
}

func TestDiscoveryEndpoints(t *testing.T) {
	_, _, mux := newService(t, Options{})

	rr := doReq(mux, http.MethodGet, "/v1/models", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("/v1/models: status %d", rr.Code)
	}
	var models []ModelInfo
	if err := json.Unmarshal(rr.Body.Bytes(), &models); err != nil {
		t.Fatalf("decode /v1/models: %v", err)
	}
	if len(models) != len(modelCatalog) {
		t.Fatalf("/v1/models returned %d entries, want %d", len(models), len(modelCatalog))
	}
	for _, m := range models {
		if m.Name == "" || m.Canonical == "" || m.Layers == 0 {
			t.Fatalf("incomplete model entry: %+v", m)
		}
	}

	rr = doReq(mux, http.MethodGet, "/v1/accelerators", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("/v1/accelerators: status %d", rr.Code)
	}
	var accels []AccelInfo
	if err := json.Unmarshal(rr.Body.Bytes(), &accels); err != nil {
		t.Fatalf("decode /v1/accelerators: %v", err)
	}
	if len(accels) != len(accelCatalog) {
		t.Fatalf("/v1/accelerators returned %d entries, want %d", len(accels), len(accelCatalog))
	}
	seen := map[string]AccelInfo{}
	for _, a := range accels {
		if a.Name == "" || a.Fingerprint == "" {
			t.Fatalf("incomplete accelerator entry: %+v", a)
		}
		seen[a.Name] = a
	}
	if seen["spacx"].LossDB == nil || *seen["spacx"].LossDB <= 0 {
		t.Fatalf("spacx should report a worst-case loss, got %+v", seen["spacx"].LossDB)
	}
	if seen["simba"].LossDB != nil {
		t.Fatalf("simba should not report a loss figure, got %v", *seen["simba"].LossDB)
	}

	if rr := doReq(mux, http.MethodPost, "/v1/models", ""); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/models: status %d, want 405", rr.Code)
	}
}

func TestSweepGridAndCacheWarming(t *testing.T) {
	_, reg, mux := newService(t, Options{Workers: 4})

	rr := doReq(mux, http.MethodPost, "/v1/sweep",
		`{"models": ["alexnet"], "accels": ["spacx", "simba"], "batches": [1, 4]}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("/v1/sweep: status %d, body %s", rr.Code, rr.Body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode sweep response: %v", err)
	}
	if len(resp.Points) != 4 {
		t.Fatalf("sweep returned %d points, want 4", len(resp.Points))
	}
	// Grid order: models > accels > modes > batches.
	want := []SweepPoint{
		{Model: "alexnet", Accel: "spacx", Mode: "whole", Batch: 1},
		{Model: "alexnet", Accel: "spacx", Mode: "whole", Batch: 4},
		{Model: "alexnet", Accel: "simba", Mode: "whole", Batch: 1},
		{Model: "alexnet", Accel: "simba", Mode: "whole", Batch: 4},
	}
	for i, p := range resp.Points {
		if p.Model != want[i].Model || p.Accel != want[i].Accel || p.Mode != want[i].Mode || p.Batch != want[i].Batch {
			t.Fatalf("point %d identity = (%s,%s,%s,%d), want (%s,%s,%s,%d)",
				i, p.Model, p.Accel, p.Mode, p.Batch,
				want[i].Model, want[i].Accel, want[i].Mode, want[i].Batch)
		}
		if p.Error != "" || len(p.Result) == 0 {
			t.Fatalf("point %d failed: error %q, result %d bytes", i, p.Error, len(p.Result))
		}
	}

	// The sweep warmed the cache: a point query now hits.
	runs := reg.Counter("spacx_serve_engine_runs_total")
	point := doReq(mux, http.MethodPost, "/v1/simulate", alexOnSpacx)
	if point.Code != http.StatusOK || point.Header().Get("X-Spacx-Cache") != "hit" {
		t.Fatalf("point query after sweep: status %d, cache %q",
			point.Code, point.Header().Get("X-Spacx-Cache"))
	}
	if got := reg.Counter("spacx_serve_engine_runs_total"); got != runs {
		t.Fatalf("point query after sweep re-ran the engine (%v -> %v)", runs, got)
	}
}

// TestSyncSweepAnswersEveryPoint is the regression test for the synchronous
// /v1/sweep queue overflow: the EXPERIMENTS.md 240-point grid on a fresh
// default service used to fail most of its points with "simulation queue
// full". The second case forces rejections with a one-slot queue; the
// sweep retries them after Retry-After instead of failing the point.
func TestSyncSweepAnswersEveryPoint(t *testing.T) {
	const grid = `{"models": ["resnet50", "vgg16", "densenet201", "efficientnetb7", "alexnet", "mobilenetv2"],
		"accels": ["spacx", "spacx-noba", "simba", "popstar"], "modes": ["whole", "layer"], "batches": [1, 4, 8, 16, 32]}`
	cases := []struct {
		name   string
		opts   Options
		body   string
		points int
	}{
		{"default service, 240 points", Options{MaxSweepPoints: 256}, grid, 240},
		{"one-slot queue", Options{QueueDepth: 1, MaxBatch: 4, RetryAfter: time.Millisecond},
			`{"models": ["alexnet", "vgg16"], "accels": ["spacx", "simba"], "batches": [1, 2, 4, 8]}`, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, mux := newService(t, tc.opts)
			rr := doReq(mux, http.MethodPost, "/v1/sweep", tc.body)
			if rr.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rr.Code, rr.Body)
			}
			var resp SweepResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Points) != tc.points {
				t.Fatalf("%d points, want %d", len(resp.Points), tc.points)
			}
			failed := 0
			for _, p := range resp.Points {
				if p.Error != "" || len(p.Result) == 0 {
					failed++
				}
			}
			if failed != 0 {
				t.Fatalf("%d of %d points failed, want 0", failed, tc.points)
			}
		})
	}
}

// overflowingSweep is a sweep body under the 1 MiB body limit whose grid
// has 2^64 points — 2^17 models and accels, 2^15 modes and batches — so the
// int product of its axis lengths wraps to 0. Its first model and
// accelerator are valid and its modes are empty (answered as "whole"), so
// a point-by-point expansion would only reach an invalid point after 2^30
// valid ones.
func overflowingSweep() string {
	var b strings.Builder
	axis := func(key, first, rest string, n int) {
		fmt.Fprintf(&b, "%q: [%s", key, first)
		for i := 1; i < n; i++ {
			b.WriteString(",")
			b.WriteString(rest)
		}
		b.WriteString("]")
	}
	b.WriteString("{")
	axis("models", `"alexnet"`, `""`, 1<<17)
	b.WriteString(", ")
	axis("accels", `"spacx"`, `""`, 1<<17)
	b.WriteString(", ")
	axis("modes", `""`, `""`, 1<<15)
	b.WriteString(", ")
	axis("batches", "1", "1", 1<<15)
	b.WriteString("}")
	return b.String()
}

// within runs f and fails when it does not return within d. A call still
// running then may be expanding an unbounded grid, so it aborts the whole
// test binary rather than let the expansion exhaust memory under the tests
// that follow.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		panic(fmt.Sprintf("%s did not return within %v", t.Name(), d))
	}
}

func TestSweepValidation(t *testing.T) {
	_, _, mux := newService(t, Options{MaxSweepPoints: 4})
	cases := []struct {
		name string
		body string
		err  string // the error body's message; "" means the sweep passes
	}{
		{"bad json", `{`, "decode request: unexpected EOF"},
		{"empty axes", `{"models": [], "accels": ["spacx"]}`, "models and accels must be non-empty"},
		{"unknown model", `{"models": ["lenet"], "accels": ["spacx"]}`,
			`point (lenet, spacx, whole, 1): unknown model "lenet" (see /v1/models)`},
		{"unknown accel", `{"models": ["alexnet"], "accels": ["tpu"]}`,
			`point (alexnet, tpu, whole, 1): unknown accelerator "tpu" (see /v1/accelerators)`},
		{"unknown mode", `{"models": ["alexnet"], "accels": ["spacx"], "modes": ["fast"]}`,
			`point (alexnet, spacx, fast, 1): unknown mode "fast" (whole, layer)`},
		{"grid too large", `{"models": ["alexnet"], "accels": ["spacx"], "batches": [1,2,3,4,5]}`,
			"sweep grid has 5 points, cap is 4"},
		{"overflowing grid", overflowingSweep(),
			"sweep grid has more than 9223372036854775807 points, cap is 4"},
		{"unknown field", `{"models": ["alexnet"], "accels": ["spacx"], "grid": true}`,
			`decode request: json: unknown field "grid"`},
		{"trailing data", `{"models": ["alexnet"], "accels": ["spacx"]} {}`,
			"trailing data after request object"},
		{"batch zero", `{"models": ["alexnet"], "accels": ["spacx"], "batches": [0]}`,
			"point (alexnet, spacx, whole, 0): batch must be in [1, 256], got 0"},
		{"batch 257", `{"models": ["alexnet"], "accels": ["spacx"], "batches": [257]}`,
			"point (alexnet, spacx, whole, 257): batch must be in [1, 256], got 257"},
		{"negative loss budget", `{"models": ["alexnet"], "accels": ["spacx"], "loss_budget_db": -1.5}`,
			"point (alexnet, spacx, whole, 1): loss_budget_db must be >= 0, got -1.5"},
		{"empty mode is whole", `{"models": ["alexnet"], "accels": ["spacx"], "modes": [""]}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rr *httptest.ResponseRecorder
			within(t, 10*time.Second, func() { rr = doReq(mux, http.MethodPost, "/v1/sweep", tc.body) })
			if tc.err == "" {
				var resp SweepResponse
				if rr.Code != http.StatusOK {
					t.Fatalf("status %d, want 200 (body %s)", rr.Code, rr.Body)
				}
				if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if len(resp.Points) != 1 || resp.Points[0].Mode != "whole" || resp.Points[0].Error != "" {
					t.Fatalf("points = %+v, want one whole-mode point", resp.Points)
				}
				return
			}
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", rr.Code, rr.Body)
			}
			var e errorResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error != tc.err {
				t.Fatalf("error %q, want %q (%v)", e.Error, tc.err, err)
			}
		})
	}
}

// TestPrepareSweepRejectsOverflowingGrid is the /v1/jobs path of the
// overflowing grid: PrepareSweep must refuse it at the point cap before
// expanding a single point.
func TestPrepareSweepRejectsOverflowingGrid(t *testing.T) {
	s, _, _ := newService(t, Options{MaxSweepPoints: 256})
	body := []byte(overflowingSweep())
	if len(body) > maxRequestBody {
		t.Fatalf("body is %d bytes, over the %d-byte limit", len(body), maxRequestBody)
	}
	var err error
	within(t, 10*time.Second, func() { _, err = s.PrepareSweep(body) })
	const want = "sweep grid has more than 9223372036854775807 points, cap is 256"
	if err == nil || err.Error() != want {
		t.Fatalf("PrepareSweep error %v, want %q", err, want)
	}
}

// TestSweepBodyMatchesIndentedEncoding pins the one-pass sweep writer to
// what it replaces — json.Encoder with SetIndent("", "  ") on the
// SweepResponse — on the 240-point grid, a one-point grid, and a grid with
// error points, one of whose text needs escaping.
func TestSweepBodyMatchesIndentedEncoding(t *testing.T) {
	const grid240 = `{"models": ["resnet50", "vgg16", "densenet201", "efficientnetb7", "alexnet", "mobilenetv2"],
		"accels": ["spacx", "spacx-noba", "simba", "popstar"], "modes": ["whole", "layer"], "batches": [1, 4, 8, 16, 32]}`
	cases := []struct {
		name, body string
		failed     int
	}{
		{"240 points", grid240, 0},
		{"one point", `{"models": ["alexnet"], "accels": ["spacx"]}`, 0},
		// SPACX's worst-case loss is over a 0.5 dB budget; Simba has no
		// loss figure and passes.
		{"error points", `{"models": ["alexnet"], "accels": ["spacx", "simba"], "batches": [1, 2], "loss_budget_db": 0.5}`, 2},
	}
	s, _, _ := newService(t, Options{MaxSweepPoints: 256})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run, err := s.PrepareSweep([]byte(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := run.Run(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
			if tc.failed > 0 {
				run.points[0].Error = `over <budget> & "escaped"` + "\t\u2028é"
			}
			got, failed, err := run.encodeResult()
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			if err := enc.Encode(SweepResponse{Points: run.points}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("sweep body differs from the indented encoding:\n%s\nvs\n%s", got, want.Bytes())
			}
			if failed != tc.failed {
				t.Fatalf("failed = %d, want %d", failed, tc.failed)
			}
		})
	}
}

func TestDistinctQueriesGetDistinctResults(t *testing.T) {
	_, _, mux := newService(t, Options{Workers: 4})

	whole := doReq(mux, http.MethodPost, "/v1/simulate", `{"model": "alexnet", "accel": "spacx"}`)
	layer := doReq(mux, http.MethodPost, "/v1/simulate", `{"model": "alexnet", "accel": "spacx", "mode": "layer"}`)
	if whole.Code != http.StatusOK || layer.Code != http.StatusOK {
		t.Fatalf("statuses %d / %d", whole.Code, layer.Code)
	}
	if bytes.Equal(whole.Body.Bytes(), layer.Body.Bytes()) {
		t.Fatal("whole and layer modes returned identical bodies")
	}

	var rw, rl SimulateResponse
	if err := json.Unmarshal(whole.Body.Bytes(), &rw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(layer.Body.Bytes(), &rl); err != nil {
		t.Fatal(err)
	}
	// Layer-by-layer residency must round-trip activations through DRAM, so
	// it can never move fewer bytes than whole-network residency.
	if rl.DRAMBytes < rw.DRAMBytes {
		t.Fatalf("layer mode DRAM %d < whole mode DRAM %d", rl.DRAMBytes, rw.DRAMBytes)
	}
}
