package main

import (
	"fmt"
	"strings"
)

// layerDef is one per-layer metric of the traced run, in print order; the
// list matches BENCHMARK.json's per_layer entries. A workload that does not
// exercise a layer reports 0 for its metrics.
type layerDef struct{ name, unit string }

var layerDefs = []layerDef{
	// internal/serve
	{"serve.hit_ratio", "ratio"},
	{"serve.hit_ms", "ms"},
	{"serve.miss_ms", "ms"},
	{"serve.handler_self_ms", "ms"},
	{"serve.cache_lookup_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.engine_self_ms", "ms"},
	{"serve.sim_model_ms", "ms"},
	{"serve.batch_primes", "count"},
	{"serve.primed_points", "count"},
	{"serve.batch_size", "count"},
	{"serve.queue_rejected", "count"},
	{"serve.engine_runs", "count"},
	{"http.client_ms", "ms"},
	{"serve.response_kb", "KB"},
	// internal/sim, internal/dataflow
	{"sim.points", "count"},
	{"sim.run_layer_ms", "ms"},
	{"sim.run_batch_ms", "ms"},
	{"sim.cohort_key_ms", "ms"},
	{"sim.points_per_cohort", "ratio"},
	{"dataflow.map_ms", "ms"},
	{"dataflow.flows_ms", "ms"},
	// internal/exp, internal/report
	{"exp.table1_ms", "ms"},
	{"exp.table2_ms", "ms"},
	{"exp.table34_ms", "ms"},
	{"exp.fig13_ms", "ms"},
	{"exp.fig15_ms", "ms"},
	{"exp.fig16_ms", "ms"},
	{"exp.fig17_ms", "ms"},
	{"exp.fig18_ms", "ms"},
	{"exp.fig19_ms", "ms"},
	{"exp.fig20_ms", "ms"},
	{"exp.fig21a_ms", "ms"},
	{"exp.fig21b_ms", "ms"},
	{"exp.fig22_ms", "ms"},
	{"exp.ablation_ms", "ms"},
	{"exp.tradeoff_ms", "ms"},
	{"exp.adaptive_ms", "ms"},
	{"exp.batch_ms", "ms"},
	{"exp.engines_ms", "ms"},
	{"exp.area_ms", "ms"},
	{"exp.memo_entries", "count"},
	{"report.render_ms", "ms"},
	// internal/eventsim
	{"eventsim.packets", "count"},
	{"eventsim.ns_per_packet", "ns"},
	// internal/thermal through sim.ThermalStepper
	{"thermal.step_us", "us"},
	{"thermal.replay_ms", "ms"},
	{"thermal.encode_ms", "ms"},
	// Go runtime
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	// attribution
	{"unattributed_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// addCommonLayers fills the metrics every workload derives the same way:
// span self times, client-side HTTP time, the Go runtime deltas and the
// tracing overhead.
func addCommonLayers(out *outcome) {
	ops := float64(len(out.lat) + len(out.tracedLat))
	per := "per " + out.opName
	out.layers["go.alloc_mb"] = layerValue{out.ph.allocMB / ops, per + " (10^6 bytes allocated)"}
	out.layers["go.gc_cycles"] = layerValue{out.ph.gcCycles / ops, per}
	if u := median(out.lat); u > 0 {
		out.layers["trace.overhead_pct"] = layerValue{100 * (median(out.tracedLat)/u - 1),
			fmt.Sprintf("median traced vs untraced %s latency, %d vs %d %ss",
				out.opName, len(out.tracedLat), len(out.lat), out.opName)}
	}

	var unattributed, handler, client float64
	named := map[string]float64{}
	traced := 0
	for _, spans := range out.log.byOp() {
		self := selfTimes(spans)
		name := map[int64]string{}
		for _, s := range spans {
			name[s.ID] = s.Name
		}
		for _, s := range spans {
			ms := float64(s.dur()) / 1e6
			switch {
			case s.Parent == 0:
				traced++
				unattributed += float64(self[s.ID]) / 1e6
			case strings.HasPrefix(s.Name, "serve:"):
				if strings.HasPrefix(name[s.Parent], "http:") {
					client -= ms
				}
				// The job-events stream only waits for the job, whose work
				// the queue, engine and sim metrics account for.
				if s.Name != "serve:jobs_events" {
					handler += float64(self[s.ID]) / 1e6
				}
			case strings.HasPrefix(s.Name, "http:"):
				client += ms
			case strings.HasPrefix(s.Name, "exp."), strings.HasPrefix(s.Name, "report."):
				named[s.Name] += ms
			}
		}
	}
	if traced == 0 {
		return
	}
	n := float64(traced)
	perTraced := fmt.Sprintf("per traced %s (%d)", out.opName, traced)
	out.layers["unattributed_ms"] = layerValue{unattributed / n, perTraced + ": op time no program span covers"}
	if handler != 0 || client != 0 {
		out.layers["serve.handler_self_ms"] = layerValue{handler / n, perTraced + ": serve:<endpoint> root minus its descendants"}
		out.layers["http.client_ms"] = layerValue{client / n, perTraced + ": client latency minus root span"}
	}
	render := 0.0
	for name, ms := range named {
		if strings.HasPrefix(name, "report.") {
			render += ms
			continue
		}
		out.layers[name+"_ms"] = layerValue{ms / n, perTraced}
	}
	if render > 0 {
		out.layers["report.render_ms"] = layerValue{render / n, perTraced + ": all renderer calls"}
	}
}

// sub is the counter delta c - o.
func (c serveCounters) sub(o serveCounters) serveCounters {
	d := serveCounters{
		spanSec:      map[string]float64{},
		batchPrimes:  c.batchPrimes - o.batchPrimes,
		primedPoints: c.primedPoints - o.primedPoints,
		batchSum:     c.batchSum - o.batchSum,
		batchCount:   c.batchCount - o.batchCount,
		rejected:     c.rejected - o.rejected,
		engineRuns:   c.engineRuns - o.engineRuns,
	}
	for k, v := range c.spanSec {
		d.spanSec[k] = v - o.spanSec[k]
	}
	return d
}

// add accumulates another delta into c.
func (c *serveCounters) add(o serveCounters) {
	if c.spanSec == nil {
		c.spanSec = map[string]float64{}
	}
	for k, v := range o.spanSec {
		c.spanSec[k] += v
	}
	c.batchPrimes += o.batchPrimes
	c.primedPoints += o.primedPoints
	c.batchSum += o.batchSum
	c.batchCount += o.batchCount
	c.rejected += o.rejected
	c.engineRuns += o.engineRuns
}

// serveLayers fills the service-registry metrics from the counter delta d
// over ops ops. The span sums come from spacx_trace_span_seconds, which
// also covers spans past a trace's 512-span cap.
func serveLayers(out *outcome, d serveCounters, ops int, responseBytes int64) {
	n := float64(ops)
	per := fmt.Sprintf("per %s (%d)", out.opName, ops)
	span := func(name string) float64 { return 1000 * d.spanSec[name] / n }
	out.layers["serve.cache_lookup_ms"] = layerValue{span("cache:lookup"), per + ": cache:lookup spans"}
	out.layers["serve.queue_wait_ms"] = layerValue{span("queue:wait"), per + ": queue:wait spans, primeBatch included"}
	out.layers["serve.engine_self_ms"] = layerValue{span("engine:compute") - span("sim:model"), per + ": engine:compute minus sim:model"}
	out.layers["serve.sim_model_ms"] = layerValue{span("sim:model"), per + ": sim:model spans"}
	out.layers["serve.batch_primes"] = layerValue{d.batchPrimes / n, per}
	out.layers["serve.primed_points"] = layerValue{d.primedPoints / n, per}
	if d.batchCount > 0 {
		out.layers["serve.batch_size"] = layerValue{d.batchSum / d.batchCount, fmt.Sprintf("mean jobs per micro-batch (%.0f batches)", d.batchCount)}
	}
	out.layers["serve.queue_rejected"] = layerValue{d.rejected / n, per}
	out.layers["serve.engine_runs"] = layerValue{d.engineRuns / n, per}
	out.layers["serve.response_kb"] = layerValue{float64(responseBytes) / 1e3 / n, per + ", 10^3 bytes"}
}
