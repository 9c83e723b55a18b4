package main

// This is the benchmark's only file that imports the program. Every call
// into spacx goes through the functions below: the exp drivers and
// setters, the report renderers, serve and jobs construction, and the sim,
// dataflow, eventsim and thermal probes. A signature change in the program
// is therefore fixed here and nowhere else.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"spacx/internal/dataflow"
	"spacx/internal/dnn"
	"spacx/internal/exp"
	"spacx/internal/exp/engine"
	"spacx/internal/obs"
	"spacx/internal/obs/tracing"
	"spacx/internal/report"
	"spacx/internal/serve"
	"spacx/internal/serve/jobs"
	"spacx/internal/sim"
)

// ---------------------------------------------------------------- report

// reportResult is one driver's rows from a full report, by golden name.
type reportResult struct {
	name string
	rows any
}

// reportDefaults sets what `spacx-report` sets with default flags, -j
// NumCPU; the other exp setters keep their defaults in a fresh process.
func reportDefaults() { exp.SetParallelism(runtime.NumCPU()) }

// resetCaches drops the exp memo caches (layer, detailed and packet).
func resetCaches() { exp.ResetCaches() }

// memoEntries is exp.CacheSize: memoized layer evaluations.
func memoEntries() int { return exp.CacheSize() }

// drive times one exp driver call as an "exp.<name>" span and keeps its rows.
func drive[T any](t *opTrace, out *[]reportResult, name string, fn func() (T, error)) (T, error) {
	start := t.now()
	v, err := fn()
	t.span("exp."+name, start)
	if err != nil {
		return v, fmt.Errorf("exp %s: %w", name, err)
	}
	*out = append(*out, reportResult{name: name, rows: v})
	return v, nil
}

// render times one renderer call as a "report.<name>" span, followed by the
// separator spacx-report prints after every artifact.
func render(t *opTrace, w io.Writer, name string, fn func()) {
	start := t.now()
	fn()
	fmt.Fprintln(w, strings.Repeat("-", 88))
	t.span("report."+name, start)
}

// runReport is a full `spacx-report` with default flags: the same driver and
// renderer sequence as the command's text output, rendered into w.
func runReport(w io.Writer, packets int, t *opTrace) ([]reportResult, error) {
	var out []reportResult
	t1, err := drive(t, &out, "table1", exp.Table1)
	if err != nil {
		return nil, err
	}
	render(t, w, "table1", func() { report.Table1(w, t1) })
	t2, _ := drive(t, &out, "table2", func() ([]exp.Table2Row, error) { return exp.Table2(), nil })
	render(t, w, "table2", func() { report.Table2(w, t2) })
	t34, err := drive(t, &out, "table34", exp.Table3And4)
	if err != nil {
		return nil, err
	}
	render(t, w, "table34", func() { report.Table3And4(w, t34) })
	f13, err := drive(t, &out, "fig13", exp.Fig13And14)
	if err != nil {
		return nil, err
	}
	render(t, w, "fig13", func() { report.PerLayer(w, f13) })
	f15, err := drive(t, &out, "fig15", exp.Fig15)
	if err != nil {
		return nil, err
	}
	render(t, w, "fig15", func() {
		report.Overall(w, "Figure 15 — whole-inference execution time and energy (normalized to Simba)", f15)
	})
	f16, err := drive(t, &out, "fig16", func() ([]exp.Fig16Row, error) { return exp.Fig16(packets) })
	if err != nil {
		return nil, err
	}
	render(t, w, "fig16", func() { report.Fig16(w, f16) })
	f17, err := drive(t, &out, "fig17", exp.Fig17)
	if err != nil {
		return nil, err
	}
	render(t, w, "fig17", func() {
		report.Overall(w, "Figure 17 — dataflows on the SPACX architecture (normalized to WS)", f17)
	})
	f18, err := drive(t, &out, "fig18", exp.Fig18)
	if err != nil {
		return nil, err
	}
	render(t, w, "fig18", func() {
		report.Overall(w, "Figure 18 — bandwidth allocation on/off (normalized to Simba)", f18)
	})
	f19, err := drive(t, &out, "fig19", exp.Fig19)
	if err != nil {
		return nil, err
	}
	render(t, w, "fig19", func() {
		report.PowerSurface(w, "Figure 19 — SPACX network power, moderate parameters", f19)
	})
	f20, err := drive(t, &out, "fig20", exp.Fig20)
	if err != nil {
		return nil, err
	}
	render(t, w, "fig20", func() {
		report.PowerSurface(w, "Figure 20 — SPACX network power, aggressive parameters", f20)
	})
	f21a, err := drive(t, &out, "fig21a", exp.Fig21a)
	if err != nil {
		return nil, err
	}
	f21b, err := drive(t, &out, "fig21b", exp.Fig21bBreakdown)
	if err != nil {
		return nil, err
	}
	render(t, w, "fig21", func() { report.Fig21(w, f21a, f21b) })
	f22, err := drive(t, &out, "fig22", exp.Fig22)
	if err != nil {
		return nil, err
	}
	render(t, w, "fig22", func() { report.Fig22(w, f22) })
	abl, err := drive(t, &out, "ablation", exp.AblationBroadcast)
	if err != nil {
		return nil, err
	}
	render(t, w, "ablation", func() { report.Ablation(w, abl) })
	tr, err := drive(t, &out, "tradeoff", exp.GranularityTradeoff)
	if err != nil {
		return nil, err
	}
	render(t, w, "tradeoff", func() { report.GranularityTradeoff(w, tr) })
	ad, err := drive(t, &out, "adaptive", exp.AdaptiveGranularity)
	if err != nil {
		return nil, err
	}
	render(t, w, "adaptive", func() { report.Adaptive(w, ad) })
	bs, err := drive(t, &out, "batch", exp.BatchScaling)
	if err != nil {
		return nil, err
	}
	render(t, w, "batch", func() { report.BatchScaling(w, bs) })
	en, err := drive(t, &out, "engines", exp.EngineAgreement)
	if err != nil {
		return nil, err
	}
	render(t, w, "engines", func() { report.Engines(w, en) })
	ar, err := drive(t, &out, "area", exp.Area)
	if err != nil {
		return nil, err
	}
	render(t, w, "area", func() { report.Area(w, ar) })
	return out, nil
}

// eventsimProbe runs the 12 fig16 (model, accelerator) pairs through
// exp.NetworkProbe at the given packet count after exp.ResetCaches. Fig15
// warms the layer memo first, so the timed loop is the event simulator plus
// the packet-cache insert, not the analytical model the load derives from.
func eventsimProbe(packets int) (injected int64, elapsed time.Duration, err error) {
	exp.ResetCaches()
	if _, err := exp.Fig15(); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for _, m := range dnn.Benchmarks() {
		for _, acc := range sim.EvalAccelerators() {
			st, err := exp.NetworkProbe(acc, m, packets, nil)
			if err != nil {
				return 0, 0, fmt.Errorf("network probe %s on %s: %w", m.Name, acc.Name(), err)
			}
			injected += int64(st.Injected)
		}
	}
	return injected, time.Since(start), nil
}

// ---------------------------------------------------------------- serve

// service is a spacx-serve instance built the way cmd/spacx-serve builds it
// with default flags (registry recorder, 256-trace collector, in-memory
// jobs manager), mounted on an httptest server instead of a listener of its
// own. Only -sweep-points varies.
type service struct {
	URL    string
	Client *http.Client

	reg    *obs.Registry
	traces *tracing.Collector
	svc    *serve.Service
	mgr    *jobs.Manager
	ts     *httptest.Server
	cancel context.CancelFunc
}

func newService(sweepPoints int) (*service, error) {
	reg := obs.NewRegistry(obs.NewLogger(os.Stderr, false))
	prog := engine.NewProgress()
	traces := tracing.NewCollector(256, reg)
	exp.SetRecorder(reg)
	ctx, cancel := context.WithCancel(context.Background())
	svc := serve.New(serve.Options{
		Workers:         runtime.NumCPU(),
		QueueDepth:      64,
		MaxBatch:        16,
		CacheEntries:    512,
		MaxRequestBatch: 256,
		MaxSweepPoints:  sweepPoints,
		RetryAfter:      time.Second,
		Recorder:        reg,
		Progress:        prog,
		Traces:          traces,
	})
	svc.Start(ctx)
	mgr, err := jobs.NewManager(jobs.Options{
		Prepare: func(body []byte) (jobs.SweepRun, error) {
			sr, err := svc.PrepareSweep(body)
			if err != nil {
				return nil, err
			}
			return sr, nil
		},
		Keep:     64,
		MaxLive:  8,
		Recorder: reg,
		Traces:   traces,
	})
	if err != nil {
		svc.Close()
		cancel()
		return nil, fmt.Errorf("jobs manager: %w", err)
	}
	mux := http.NewServeMux()
	svc.Routes(mux)
	mgr.Routes(mux, svc.Instrument)
	ts := httptest.NewServer(mux)
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	return &service{
		URL: ts.URL, Client: &http.Client{Transport: tr},
		reg: reg, traces: traces, svc: svc, mgr: mgr, ts: ts, cancel: cancel,
	}, nil
}

// Close shuts the service down the way spacx-serve drains on SIGTERM (jobs,
// then admission) and stops the HTTP server and its connections.
func (s *service) Close() {
	s.mgr.Close()
	s.svc.Close()
	s.cancel()
	s.Client.CloseIdleConnections()
	s.ts.Close()
	exp.SetRecorder(nil)
}

// serveCounters is the subset of the service registry the per-layer
// metrics are derived from; sums are in seconds.
type serveCounters struct {
	spanSec      map[string]float64 // spacx_trace_span_seconds sum by span
	batchPrimes  float64
	primedPoints float64
	batchSum     float64 // spacx_serve_batch_size sum and count
	batchCount   float64
	rejected     float64
	engineRuns   float64
}

func (s *service) counters() serveCounters {
	c := serveCounters{spanSec: map[string]float64{}}
	snap := s.reg.Snapshot()
	for _, p := range snap.Counters {
		switch p.Name {
		case "spacx_serve_batch_primes_total":
			c.batchPrimes += p.Value
		case "spacx_serve_batch_primed_points_total":
			c.primedPoints += p.Value
		case "spacx_serve_queue_rejected_total":
			c.rejected += p.Value
		case "spacx_serve_engine_runs_total":
			c.engineRuns += p.Value
		}
	}
	for _, h := range snap.Histograms {
		switch h.Name {
		case "spacx_trace_span_seconds":
			c.spanSec[h.Labels["span"]] += h.Sum
		case "spacx_serve_batch_size":
			c.batchSum += h.Sum
			c.batchCount += float64(h.Count)
		}
	}
	return c
}

// graftTraces attaches the service's span tree of every trace the op
// queued (tracing.Collector.Trace) under the benchmark span that made the
// call. A trace the collector no longer holds complete is an error.
func (s *service) graftTraces(t *opTrace) error {
	if t == nil {
		return nil
	}
	var add func(sd []tracing.SpanData, parent int64)
	add = func(sd []tracing.SpanData, parent int64) {
		for _, d := range sd {
			start := d.StartUTC.UnixNano()
			end := start + int64(d.DurationSec*1e9)
			add(d.Children, t.add(parent, d.Name, start, end))
		}
	}
	for _, g := range t.grafts {
		td, ok := s.traces.Trace(g.traceID)
		if !ok || !td.Complete {
			return fmt.Errorf("trace %q not retained complete", g.traceID)
		}
		add(td.Spans, g.parent)
	}
	t.grafts = nil
	return nil
}

// ---------------------------------------------------------------- references

// acceleratorByName mirrors spacx-serve's accelerator catalog.
func acceleratorByName(name string) (sim.Accelerator, bool) {
	switch name {
	case "spacx":
		return sim.SPACXAccel(), true
	case "spacx-noba":
		return sim.SPACXAccelNoBA(), true
	case "simba":
		return sim.SimbaAccel(), true
	case "popstar":
		return sim.POPSTARAccel(), true
	}
	return sim.Accelerator{}, false
}

// simQuery is one /v1/simulate request as the benchmark generates it.
type simQuery struct {
	Model string `json:"model"`
	Accel string `json:"accel"`
	Mode  string `json:"mode"`
	Batch int    `json:"batch"`
}

func (q simQuery) request() (sim.Request, error) {
	m, err := dnn.ByName(q.Model)
	if err != nil {
		return sim.Request{}, err
	}
	acc, ok := acceleratorByName(q.Accel)
	if !ok {
		return sim.Request{}, fmt.Errorf("unknown accelerator %q", q.Accel)
	}
	mode := sim.WholeInference
	if q.Mode == "layer" {
		mode = sim.LayerByLayer
	}
	return sim.Request{Accel: acc, Model: m, Mode: mode, Batch: q.Batch}, nil
}

// simulateReference answers q by a direct sim.Request.Run, with no serve
// caches, encoded as the /v1/simulate body.
func simulateReference(q simQuery) ([]byte, error) {
	req, err := q.request()
	if err != nil {
		return nil, err
	}
	res, err := req.Run(nil)
	if err != nil {
		return nil, err
	}
	resp := serve.SimulateResponse{
		Model: q.Model, Accel: q.Accel, Mode: q.Mode, Batch: q.Batch,
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
	if strings.HasPrefix(q.Accel, "spacx") {
		cfg, err := sim.SPACXAccelConfig()
		if err != nil {
			return nil, err
		}
		loss := float64(cfg.CrossChannelBudget().Loss())
		resp.WorstCaseLossDB = &loss
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// sweepReference is the grid's job result with every point answered by a
// direct sim.Request.Run, as compact JSON.
func sweepReference(qs []simQuery) ([]byte, error) {
	pts := make([]serve.SweepPoint, len(qs))
	for i, q := range qs {
		b, err := simulateReference(q)
		if err != nil {
			return nil, err
		}
		pts[i] = serve.SweepPoint{Model: q.Model, Accel: q.Accel, Mode: q.Mode, Batch: q.Batch, Result: b}
	}
	return json.Marshal(serve.SweepResponse{Points: pts})
}

// thermalQuery is one /v1/thermal request as the benchmark generates it.
type thermalQuery struct {
	Model    string  `json:"model"`
	Profile  string  `json:"profile"`
	Seed     int64   `json:"seed"`
	Steps    int     `json:"steps"`
	StepSec  float64 `json:"step_sec"`
	Feedback bool    `json:"feedback"`
}

func (q thermalQuery) config() (exp.ThermalReplayConfig, error) {
	m, err := dnn.ByName(q.Model)
	if err != nil {
		return exp.ThermalReplayConfig{}, err
	}
	return exp.ThermalReplayConfig{
		Model: m, Mode: sim.WholeInference, Profile: q.Profile, Seed: q.Seed,
		Steps: q.Steps, StepSec: q.StepSec, Feedback: q.Feedback,
	}, nil
}

// encodeIndented renders v the way spacx-serve writes JSON bodies.
func encodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// thermalReference answers q by a direct exp.ThermalReplay, encoded as the
// /v1/thermal body.
func thermalReference(q thermalQuery) ([]byte, error) {
	cfg, err := q.config()
	if err != nil {
		return nil, err
	}
	rep, err := exp.ThermalReplay(cfg)
	if err != nil {
		return nil, err
	}
	return encodeIndented(rep)
}

// ---------------------------------------------------------------- probes

// thermalTimes is one thermal probe: per-step RC stepping, a whole replay,
// and the indented JSON encode of its report.
type thermalTimes struct {
	stepSec, replaySec, encodeSec float64
}

// thermalProbe steps a sim.ThermalStepper over q's offered series, runs
// exp.ThermalReplay with q's config, and encodes its report.
func thermalProbe(q thermalQuery) (thermalTimes, error) {
	cfg, err := q.config()
	if err != nil {
		return thermalTimes{}, err
	}
	acc := sim.SPACXAccel()
	res, err := sim.Run(acc, cfg.Model, cfg.Mode)
	if err != nil {
		return thermalTimes{}, err
	}
	tc := sim.DefaultThermalConfig()
	tc.Feedback = cfg.Feedback
	st, err := sim.NewThermalStepper(acc, res, tc)
	if err != nil {
		return thermalTimes{}, err
	}
	offered, err := exp.OfferedLoad(cfg.Profile, cfg.Seed, cfg.Steps)
	if err != nil {
		return thermalTimes{}, err
	}
	var tt thermalTimes
	start := time.Now()
	for _, u := range offered {
		if _, err := st.Step(u, cfg.StepSec); err != nil {
			return thermalTimes{}, err
		}
	}
	tt.stepSec = time.Since(start).Seconds() / float64(len(offered))

	start = time.Now()
	rep, err := exp.ThermalReplay(cfg)
	if err != nil {
		return thermalTimes{}, err
	}
	tt.replaySec = time.Since(start).Seconds()

	start = time.Now()
	if _, err := encodeIndented(rep); err != nil {
		return thermalTimes{}, err
	}
	tt.encodeSec = time.Since(start).Seconds()
	return tt, nil
}

// simTimes is the sim/dataflow probe over a set of ops' distinct points.
type simTimes struct {
	points, cohorts                              int
	runLayer, runBatch, cohortKey, mapped, flows float64 // seconds
}

// simProbe replays each op's distinct layer points (sim.Request.Points,
// deduplicated within the op) through sim.RunLayer, sim.RunBatch (one call
// per op, points sorted by cohort as the serve scheduler feeds it),
// Point.CohortKey, acc.Flow.Map and dataflow.MeasureFlows.
func simProbe(ops [][]simQuery) (simTimes, error) {
	type pointKey struct {
		accel string
		layer dnn.Layer
		mode  sim.Mode
	}
	var st simTimes
	for _, op := range ops {
		seen := map[pointKey]bool{}
		var pts []sim.Point
		for _, q := range op {
			req, err := q.request()
			if err != nil {
				return simTimes{}, err
			}
			for _, p := range req.Points() {
				k := pointKey{q.Accel, p.Layer, p.Mode}
				if !seen[k] {
					seen[k] = true
					pts = append(pts, p)
				}
			}
		}
		start := time.Now()
		cohort := make([]string, len(pts))
		distinct := map[string]bool{}
		for i, p := range pts {
			cohort[i], _ = p.CohortKey()
			distinct[cohort[i]] = true
		}
		st.cohortKey += time.Since(start).Seconds()
		st.points += len(pts)
		st.cohorts += len(distinct)

		start = time.Now()
		for _, p := range pts {
			if _, err := sim.RunLayer(p.Accel, p.Layer, p.Mode); err != nil {
				return simTimes{}, err
			}
		}
		st.runLayer += time.Since(start).Seconds()

		order := make([]int, len(pts))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return cohort[order[a]] < cohort[order[b]] })
		sorted := make([]sim.Point, len(pts))
		for i, j := range order {
			sorted[i] = pts[j]
		}
		start = time.Now()
		if _, err := sim.RunBatch(sorted); err != nil {
			return simTimes{}, err
		}
		st.runBatch += time.Since(start).Seconds()

		profiles := make([]dataflow.Profile, len(pts))
		start = time.Now()
		for i, p := range pts {
			prof, err := p.Accel.Flow.Map(p.Layer, p.Accel.Arch)
			if err != nil {
				return simTimes{}, err
			}
			profiles[i] = prof
		}
		st.mapped += time.Since(start).Seconds()

		start = time.Now()
		for i, p := range pts {
			dataflow.MeasureFlows(p.Accel.Arch.Net, profiles[i].Flows)
		}
		st.flows += time.Since(start).Seconds()
	}
	return st, nil
}
