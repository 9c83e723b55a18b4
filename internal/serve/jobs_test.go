package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"spacx/internal/obs"
	"spacx/internal/obs/tracing"
	"spacx/internal/serve/jobs"
)

// newServeStack puts a started Service and a jobs.Manager on one mux, wired
// the way cmd/spacx-serve wires them: the manager prepares every job through
// Service.PrepareSweep, and the job routes run under Service.Instrument.
func newServeStack(t *testing.T, opts Options) (*jobs.Manager, *http.ServeMux) {
	t.Helper()
	reg := obs.NewRegistry(nil)
	traces := tracing.NewCollector(16, reg)
	opts.Recorder, opts.Traces = reg, traces
	svc := New(opts)
	svc.Start(context.Background())
	mgr, err := jobs.NewManager(jobs.Options{
		Prepare: func(body []byte) (jobs.SweepRun, error) {
			sr, err := svc.PrepareSweep(body)
			if err != nil {
				return nil, err
			}
			return sr, nil
		},
		Recorder: reg,
		Traces:   traces,
	})
	if err != nil {
		t.Fatalf("jobs manager: %v", err)
	}
	t.Cleanup(func() {
		mgr.Close()
		svc.Close()
	})
	mux := http.NewServeMux()
	svc.Routes(mux)
	mgr.Routes(mux, svc.Instrument)
	return mgr, mux
}

// TestJobSubmitThroughServeStack submits sweeps over POST /v1/jobs on the
// full serve stack. A bad grid must get 400 naming the problem and create no
// job; a good grid's finished job result must be byte-identical to the
// synchronous /v1/sweep body for the same grid, answered by a second
// service so that neither run reads the other's cache.
func TestJobSubmitThroughServeStack(t *testing.T) {
	const good = `{"models": ["alexnet", "mobilenetv2"], "accels": ["spacx", "simba"], "modes": ["whole", "layer"]}`
	_, _, ref := newService(t, Options{Workers: 2})
	sync := doReq(ref, http.MethodPost, "/v1/sweep", good)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync sweep: status %d: %s", sync.Code, sync.Body)
	}
	mgr, mux := newServeStack(t, Options{Workers: 2})

	rows := []tableTest[string, []byte]{
		{Name: "unknown model", Got: `{"models":["nosuch"],"accels":["spacx"]}`,
			Err: errors.New(`unknown model "nosuch"`)},
		{Name: "empty grid", Got: `{"models":[],"accels":[]}`,
			Err: errors.New("models and accels must be non-empty")},
		{Name: "trailing data", Got: `{"models":["alexnet"],"accels":["spacx"]} true`,
			Err: errors.New("trailing data after request object")},
		{Name: "unknown field", Got: `{"models":["alexnet"],"accels":["spacx"],"nope":1}`,
			Err: errors.New(`unknown field "nope"`)},
		{Name: "good grid", Got: good, Want: sync.Body.Bytes()},
	}
	for _, tc := range rows {
		t.Run(tc.Name, func(t *testing.T) {
			if tc.Skip {
				t.Skip()
			}
			before := len(mgr.List())
			rr := doReq(mux, http.MethodPost, "/v1/jobs", tc.Got)
			if tc.Err != nil {
				if rr.Code != http.StatusBadRequest {
					t.Fatalf("status %d, want 400 (body %s)", rr.Code, rr.Body)
				}
				var e errorResponse
				if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, tc.Err.Error()) {
					t.Fatalf("error body %q does not name %q (%v)", rr.Body, tc.Err, err)
				}
				if after := len(mgr.List()); after != before {
					t.Fatalf("rejected submission created a job (%d -> %d)", before, after)
				}
				return
			}
			if rr.Code != http.StatusAccepted {
				t.Fatalf("status %d, want 202 (body %s)", rr.Code, rr.Body)
			}
			var st jobs.Status
			if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
				t.Fatalf("decode submit status: %v", err)
			}
			j, ok := mgr.Get(st.ID)
			if !ok {
				t.Fatalf("submitted job %q not tracked", st.ID)
			}
			select {
			case <-j.Done():
			case <-time.After(30 * time.Second):
				t.Fatal("job never finished")
			}
			if j.State() != jobs.Done {
				t.Fatalf("job state = %s, want done (%+v)", j.State(), j.Status())
			}
			if !bytes.Equal(j.Result(), tc.Want) {
				t.Fatalf("job result differs from the sync sweep body:\n%s\nvs\n%s", j.Result(), tc.Want)
			}
		})
	}
}
