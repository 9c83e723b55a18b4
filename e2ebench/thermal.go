package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"
)

const (
	thermalSetups = 9
	// thermalSeeds is how many distinct replay seeds the ops draw from, so
	// each distinct body is checked against one direct replay.
	thermalSeeds = 16
	// thermalProbes is how many of those configs the traced run probes.
	thermalProbes = 4
)

// thermalRecipe is the EXPERIMENTS.md diurnal recipe: alexnet, diurnal
// profile, 720 steps of 10 s, feedback on. The seed varies per op.
func thermalRecipe(seed int64) thermalQuery {
	return thermalQuery{Model: "alexnet", Profile: "diurnal", Seed: seed, Steps: 720, StepSec: 10, Feedback: true}
}

// runThermalWorkload: one op is one POST /v1/thermal of the diurnal recipe
// with a replay seed drawn from the benchmark seed. One caller. Set-up
// builds the service after exp.ResetCaches and runs one untimed replay,
// which fills the base-run memo; it is repeated and the median reported.
func runThermalWorkload(cfg config) (*outcome, error) {
	out := &outcome{opName: "replay", layers: map[string]layerValue{}}
	rng := rand.New(rand.NewSource(cfg.seed))
	seeds := make([]int64, thermalSeeds)
	for i := range seeds {
		seeds[i] = rng.Int63n(1 << 31)
	}
	bodies := make([][]byte, thermalSeeds)
	for i, s := range seeds {
		b, err := json.Marshal(thermalRecipe(s))
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	d := newDigests()
	var svc *service
	defer func() {
		if svc != nil {
			svc.Close()
		}
	}()
	for i := 0; i < thermalSetups; i++ {
		if svc != nil {
			svc.Close()
			svc = nil
		}
		resetCaches()
		runtime.GC()
		start := time.Now()
		s, err := newService(64)
		if err != nil {
			return nil, err
		}
		svc = s
		_, b, err := call(svc.Client, "POST", svc.URL+"/v1/thermal", bodies[0])
		if err != nil {
			return nil, fmt.Errorf("set-up replay: %w", err)
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
		d.add("0", -1, b)
	}

	if cfg.trace {
		out.log = &spanLog{}
	}
	before := svc.counters()
	var bytes int64
	ph := beginPhase()
	deadline := ph.start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for op := 0; time.Now().Before(deadline); op++ {
		k := rng.Intn(thermalSeeds)
		t := (*opTrace)(nil)
		if op%2 == 1 {
			t = out.log.begin("op:thermal")
		}
		start := time.Now()
		_, b, err := tracedCall(svc, t, "POST", "/v1/thermal", bodies[k])
		took := ms(time.Since(start))
		t.finish()
		if gerr := svc.graftTraces(t); gerr != nil {
			return nil, gerr
		}
		out.attempted++
		if err != nil {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("replay %d: %v", op, err))
			continue
		}
		d.add(strconv.Itoa(k), op, b)
		bytes += int64(len(b))
		if t != nil {
			out.tracedLat = append(out.tracedLat, took)
		} else {
			out.lat = append(out.lat, took)
		}
	}
	out.ph = ph.end()
	delta := svc.counters().sub(before)

	failed, lines, err := d.check(runtime.NumCPU(), func(key string) ([]byte, error) {
		k, err := strconv.Atoi(key)
		if err != nil {
			return nil, err
		}
		return thermalReference(thermalRecipe(seeds[k]))
	})
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, lines...)
	out.addFailed(failed)
	if !cfg.trace {
		return out, nil
	}
	serveLayers(out, delta, len(out.lat)+len(out.tracedLat), bytes)

	var step, replay, encode []float64
	for _, s := range seeds[:thermalProbes] {
		tt, err := thermalProbe(thermalRecipe(s))
		if err != nil {
			return nil, err
		}
		step = append(step, tt.stepSec)
		replay = append(replay, tt.replaySec)
		encode = append(encode, tt.encodeSec)
	}
	base := fmt.Sprintf("median of %d replay configs", thermalProbes)
	out.layers["thermal.step_us"] = layerValue{1e6 * median(step), base + ": sim.ThermalStepper.Step per step"}
	out.layers["thermal.replay_ms"] = layerValue{1e3 * median(replay), base + ": exp.ThermalReplay"}
	out.layers["thermal.encode_ms"] = layerValue{1e3 * median(encode), base + ": indented JSON encode of the report"}
	return out, nil
}
