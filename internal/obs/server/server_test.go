package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spacx/internal/exp/engine"
	"spacx/internal/obs"
)

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func testServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := Start("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestHealthAndReadiness(t *testing.T) {
	s := testServer(t, Options{})
	h := s.Handler()

	if w := get(t, h, "/healthz"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Errorf("/healthz = %d %q", w.Code, w.Body.String())
	}
	if w := get(t, h, "/readyz"); w.Code != http.StatusOK {
		t.Errorf("/readyz while ready = %d", w.Code)
	}
	s.SetReady(false)
	if w := get(t, h, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while not ready = %d", w.Code)
	}
	s.SetReady(true)
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("/healthz must stay 200 regardless of readiness, got %d", w.Code)
	}
}

func TestMetricsEndpoints(t *testing.T) {
	reg := obs.NewRegistry(nil)
	reg.Count("spacx_exp_points_total", 7, obs.Label{Key: "sweep", Value: "fig13"})
	reg.Observe("spacx_exp_point_seconds", 0.25, obs.Label{Key: "sweep", Value: "fig13"})
	s := testServer(t, Options{Registry: reg})
	h := s.Handler()

	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		`spacx_exp_points_total{sweep="fig13"} 7`,
		"# TYPE spacx_exp_point_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	w = get(t, h, "/metrics.json")
	if w.Code != http.StatusOK || !strings.Contains(w.Header().Get("Content-Type"), "json") {
		t.Fatalf("/metrics.json = %d ct=%q", w.Code, w.Header().Get("Content-Type"))
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics.json is not a snapshot: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 7 {
		t.Errorf("snapshot counters = %+v", snap.Counters)
	}
}

func TestMetricsWithoutRegistry(t *testing.T) {
	h := testServer(t, Options{}).Handler()
	for _, path := range []string{"/metrics", "/metrics.json"} {
		if w := get(t, h, path); w.Code != http.StatusServiceUnavailable {
			t.Errorf("%s without a registry = %d, want 503", path, w.Code)
		}
	}
}

func TestProgressEndpoint(t *testing.T) {
	prog := engine.NewProgress()
	if err := engine.ForEachPhase(context.Background(), prog.Phase("fig13"), 4, 12, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	h := testServer(t, Options{Progress: prog}).Handler()

	w := get(t, h, "/progress")
	if w.Code != http.StatusOK {
		t.Fatalf("/progress = %d", w.Code)
	}
	var st engine.Status
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Total != 12 || st.Done != 12 || len(st.Phases) != 1 || st.Phases[0].Name != "fig13" {
		t.Errorf("progress status = %+v", st)
	}
}

func TestProgressEndpointNilProgress(t *testing.T) {
	h := testServer(t, Options{}).Handler()
	w := get(t, h, "/progress")
	if w.Code != http.StatusOK {
		t.Fatalf("/progress with nil Progress = %d", w.Code)
	}
	var st engine.Status
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || st.Total != 0 {
		t.Errorf("nil progress must serve the zero status, got %+v err=%v", st, err)
	}
}

func TestPprofIndexServed(t *testing.T) {
	h := testServer(t, Options{}).Handler()
	w := get(t, h, "/debug/pprof/")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/ = %d, want the profile index", w.Code)
	}
}

func TestIndexAndNotFound(t *testing.T) {
	h := testServer(t, Options{}).Handler()
	if w := get(t, h, "/"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "/metrics") {
		t.Errorf("/ = %d %q", w.Code, w.Body.String())
	}
	if w := get(t, h, "/nope"); w.Code != http.StatusNotFound {
		t.Errorf("/nope = %d, want 404", w.Code)
	}
}

// TestLifecycleDrainAfterScrape runs the real listener: the server must keep
// serving while draining, then shut down promptly once the final scrape lands.
func TestLifecycleDrainAfterScrape(t *testing.T) {
	reg := obs.NewRegistry(nil)
	reg.Count("spacx_exp_points_total", 1)
	s, err := Start("127.0.0.1:0", Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz over tcp = %d", resp.StatusCode)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.DrainAndShutdown(5*time.Second, 20*time.Millisecond) }()

	// While draining, readiness reports down but metrics still serve.
	var scraped bool
	for i := 0; i < 100 && !scraped; i++ {
		if resp, err := http.Get(base + "/readyz"); err == nil {
			code := resp.StatusCode
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if code == http.StatusServiceUnavailable { // drain has begun
				mresp, err := http.Get(base + "/metrics")
				if err != nil {
					t.Fatalf("scrape during drain: %v", err)
				}
				body, _ := io.ReadAll(mresp.Body)
				mresp.Body.Close()
				if mresp.StatusCode != http.StatusOK || !strings.Contains(string(body), "spacx_exp_points_total") {
					t.Fatalf("drain scrape = %d %q", mresp.StatusCode, body)
				}
				scraped = true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !scraped {
		t.Fatal("server never entered the draining state")
	}

	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("server kept lingering after the final scrape")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

// TestDrainLingerExpires covers the no-scraper path: with nothing polling,
// DrainAndShutdown gives up after linger.
func TestDrainLingerExpires(t *testing.T) {
	s, err := Start("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.DrainAndShutdown(50*time.Millisecond, 20*time.Millisecond); err != nil {
		t.Fatalf("drain returned %v", err)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond || waited > 2*time.Second {
		t.Errorf("linger expiry took %v, want roughly the 50ms window", waited)
	}
}

func TestMountAddsRoutesWithoutShadowingBuiltins(t *testing.T) {
	reg := obs.NewRegistry(nil)
	reg.Count("spacx_serve_requests_total", 3)
	h := testServer(t, Options{
		Registry: reg,
		Mount: func(mux *http.ServeMux) {
			mux.HandleFunc("/v1/ping", func(w http.ResponseWriter, _ *http.Request) {
				fmt.Fprintln(w, "pong")
			})
		},
	}).Handler()

	if w := get(t, h, "/v1/ping"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "pong") {
		t.Errorf("mounted route = %d %q", w.Code, w.Body.String())
	}
	// The built-in endpoints still serve on the same mux.
	if w := get(t, h, "/metrics"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "spacx_serve_requests_total") {
		t.Errorf("/metrics after Mount = %d", w.Code)
	}
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("/healthz after Mount = %d", w.Code)
	}
}

func TestStartRejectsBadAddr(t *testing.T) {
	if _, err := Start("256.0.0.1:bad", Options{}); err == nil {
		t.Error("bad listen address must fail")
	} else if !strings.Contains(err.Error(), "listen") {
		t.Errorf("error should name the failing listen: %v", err)
	}
}
