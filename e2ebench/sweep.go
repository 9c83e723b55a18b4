package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"
)

// sweepGrid is the 240-point grid of EXPERIMENTS.md: 6 models × 4
// accelerators × 2 modes × 5 batch sizes, models outermost.
var sweepGrid = struct {
	Models  []string `json:"models"`
	Accels  []string `json:"accels"`
	Modes   []string `json:"modes"`
	Batches []int    `json:"batches"`
}{
	Models:  []string{"alexnet", "mobilenetv2", "resnet50", "vgg16", "densenet201", "efficientnetb7"},
	Accels:  []string{"spacx", "simba", "popstar", "spacx-noba"},
	Modes:   []string{"whole", "layer"},
	Batches: []int{1, 4, 8, 16, 32},
}

const (
	// sweepPoints is the -sweep-points flag of the EXPERIMENTS.md recipe;
	// every other service flag is default.
	sweepPoints = 256
	sweepSetups = 9
)

// sweepQueries expands the grid in the service's order.
func sweepQueries() []simQuery {
	var qs []simQuery
	for _, m := range sweepGrid.Models {
		for _, a := range sweepGrid.Accels {
			for _, mode := range sweepGrid.Modes {
				for _, b := range sweepGrid.Batches {
					qs = append(qs, simQuery{Model: m, Accel: a, Mode: mode, Batch: b})
				}
			}
		}
	}
	return qs
}

// jobStatus is the part of a job's status the benchmark reads.
type jobStatus struct {
	ID           string          `json:"id"`
	State        string          `json:"state"`
	TraceID      string          `json:"trace_id"`
	FailedPoints int             `json:"failed_points"`
	Result       json.RawMessage `json:"result"`
}

// sweepOp submits the grid as one async job and follows its SSE stream to
// the terminal event. It returns the job id and the bytes received.
func sweepOp(svc *service, t *opTrace, body []byte) (string, int64, error) {
	_, b, err := tracedCall(svc, t, "POST", "/v1/jobs", body)
	if err != nil {
		return "", 0, err
	}
	var st jobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return "", 0, fmt.Errorf("decode job status: %w", err)
	}
	state, n, err := followEvents(svc, t, st.ID)
	if err != nil {
		return st.ID, 0, err
	}
	if t != nil {
		t.graftLater(st.TraceID, t.root)
	}
	if state != "done" {
		return st.ID, 0, fmt.Errorf("job %s ended %s", st.ID, state)
	}
	return st.ID, int64(len(b) + n), nil
}

// jobResult fetches a finished job's result as compact JSON; a job with
// failed points is an error.
func jobResult(svc *service, id string) ([]byte, error) {
	_, b, err := call(svc.Client, "GET", svc.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	var st jobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("decode job: %w", err)
	}
	if st.State != "done" || st.FailedPoints != 0 {
		return nil, fmt.Errorf("job %s: state %s, %d failed points", id, st.State, st.FailedPoints)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, st.Result); err != nil {
		return nil, fmt.Errorf("job %s result: %w", id, err)
	}
	return buf.Bytes(), nil
}

// runSweepWorkload: one op is the 240-point grid submitted as one async job
// (POST /v1/jobs) and followed over its SSE stream to the terminal event,
// on a fresh service so every grid is cold. One caller. Set-up builds a
// service and runs one untimed grid; it is repeated and the median
// reported.
func runSweepWorkload(cfg config) (*outcome, error) {
	out := &outcome{opName: "grid", layers: map[string]layerValue{}}
	body, err := json.Marshal(sweepGrid)
	if err != nil {
		return nil, err
	}
	d := newDigests()
	// Each grid's service lives until the next one replaces it.
	var svc *service
	defer func() {
		if svc != nil {
			svc.Close()
		}
	}()
	fresh := func() (err error) {
		if svc != nil {
			svc.Close()
		}
		svc, err = newService(sweepPoints)
		return err
	}
	for i := 0; i < sweepSetups; i++ {
		if svc != nil {
			svc.Close()
			svc = nil
		}
		runtime.GC()
		start := time.Now()
		if err := fresh(); err != nil {
			return nil, err
		}
		id, _, err := sweepOp(svc, nil, body)
		if err != nil {
			return nil, fmt.Errorf("set-up grid: %w", err)
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
		res, err := jobResult(svc, id)
		if err != nil {
			return nil, fmt.Errorf("set-up grid: %w", err)
		}
		d.add("grid", -1, res)
	}

	if cfg.trace {
		out.log = &spanLog{}
	}
	var delta serveCounters
	var received int64
	ph := beginPhase()
	deadline := ph.start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for op := 0; time.Now().Before(deadline); op++ {
		if err := fresh(); err != nil {
			return nil, err
		}
		t := (*opTrace)(nil)
		if op%2 == 1 {
			t = out.log.begin("op:sweep")
		}
		start := time.Now()
		id, n, err := sweepOp(svc, t, body)
		took := ms(time.Since(start))
		t.finish()
		if gerr := svc.graftTraces(t); gerr != nil {
			return nil, gerr
		}
		out.attempted++
		var res []byte
		if err == nil {
			res, err = jobResult(svc, id)
		}
		if err != nil {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("grid %d: %v", op, err))
			continue
		}
		d.add("grid", op, res)
		received += n
		delta.add(svc.counters())
		if t != nil {
			out.tracedLat = append(out.tracedLat, took)
		} else {
			out.lat = append(out.lat, took)
		}
	}
	out.ph = ph.end()

	failed, lines, err := d.check(1, func(string) ([]byte, error) { return sweepReference(sweepQueries()) })
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, lines...)
	out.addFailed(failed)
	if !cfg.trace {
		return out, nil
	}
	serveLayers(out, delta, len(out.lat)+len(out.tracedLat), received)
	return out, simLayers(out, [][]simQuery{sweepQueries()}, "per grid")
}
