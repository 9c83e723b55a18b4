package exp

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"spacx/internal/dnn"
	"spacx/internal/obs"
	"spacx/internal/sim"
)

func TestOfferedLoadDeterministicAndBounded(t *testing.T) {
	for _, profile := range Profiles() {
		a, err := OfferedLoad(profile, 7, 200)
		if err != nil {
			t.Fatalf("%s: %v", profile, err)
		}
		b, _ := OfferedLoad(profile, 7, 200)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: step %d differs across same-seed runs: %v vs %v", profile, i, a[i], b[i])
			}
			if a[i] < 0 || a[i] > 1 {
				t.Fatalf("%s: step %d out of [0,1]: %v", profile, i, a[i])
			}
		}
	}
	if _, err := OfferedLoad("nope", 1, 10); err == nil {
		t.Error("accepted unknown profile")
	}
	// Different seeds move the stochastic profiles.
	a, _ := OfferedLoad(ProfileBursty, 1, 400)
	b, _ := OfferedLoad(ProfileBursty, 2, 400)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("bursty profile ignores the seed")
	}
}

func TestThermalReplayConfigValidate(t *testing.T) {
	good := ThermalReplayConfig{Model: dnn.AlexNet(), Profile: ProfileStep, Steps: 10, StepSec: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	for i, bad := range []ThermalReplayConfig{
		{Model: dnn.AlexNet(), Profile: "nope", Steps: 10, StepSec: 1},
		{Model: dnn.AlexNet(), Profile: ProfileStep, Steps: 0, StepSec: 1},
		{Model: dnn.AlexNet(), Profile: ProfileStep, Steps: 10, StepSec: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, bad)
		}
	}
}

// The acceptance demo: a step to sustained full load heats the dies, raises
// tuning power, saturates the heaters, and throttles throughput — in that
// order: the heaters saturate strictly before the throttle engages.
func TestThermalReplayStepProfileThrottles(t *testing.T) {
	rep, err := ThermalReplay(ThermalReplayConfig{
		Model:    dnn.AlexNet(),
		Mode:     sim.LayerByLayer,
		Profile:  ProfileStep,
		Seed:     1,
		Steps:    180,
		StepSec:  1,
		Feedback: true,
	})
	if err != nil {
		t.Fatalf("ThermalReplay: %v", err)
	}
	if rep.Schema != ThermalReportSchema {
		t.Errorf("schema = %q", rep.Schema)
	}
	if len(rep.Series) != 180 {
		t.Fatalf("series length %d", len(rep.Series))
	}
	if len(rep.Nodes) != len(rep.Series[0].NodeTempsK) {
		t.Fatalf("node labels %d vs temps %d", len(rep.Nodes), len(rep.Series[0].NodeTempsK))
	}
	first, last := rep.Series[0], rep.Series[len(rep.Series)-1]
	if last.MaxChipletK <= first.MaxChipletK+1 {
		t.Errorf("no temperature rise: %g -> %g K", first.MaxChipletK, last.MaxChipletK)
	}
	if last.TuningMwPerRing <= first.TuningMwPerRing {
		t.Errorf("no tuning-power rise: %g -> %g mW", first.TuningMwPerRing, last.TuningMwPerRing)
	}
	if !last.Saturated || last.Throttle >= 1 {
		t.Errorf("full load did not saturate+throttle: %+v", last)
	}
	s := rep.Summary
	if s.SaturatedSteps == 0 || s.ThrottledSteps == 0 {
		t.Errorf("summary missed the degradation: %+v", s)
	}
	if s.CapacityLossPct <= 0 || s.AchievedPoints >= s.OfferedPoints {
		t.Errorf("no capacity loss recorded: %+v", s)
	}
	if s.PeakChipletK != last.MaxChipletK && s.PeakChipletK < last.MaxChipletK {
		t.Errorf("peak %g below final %g", s.PeakChipletK, last.MaxChipletK)
	}
	sat, thr := firstSaturatedAndThrottled(rep.Series)
	if sat < 0 || thr < 0 || sat >= thr {
		t.Errorf("first saturated step %d, first throttled step %d: want saturation strictly first", sat, thr)
	}
}

// firstSaturatedAndThrottled returns the index of the first saturated step
// and of the first throttled step of a replay series (-1 when none).
func firstSaturatedAndThrottled(series []ThermalPoint) (sat, thr int) {
	sat, thr = -1, -1
	for i, pt := range series {
		if sat < 0 && pt.Saturated {
			sat = i
		}
		if thr < 0 && pt.Throttle < 1 {
			thr = i
		}
	}
	return sat, thr
}

// Feedback off: the same replay never throttles, never saturates, and
// achieves exactly the offered load.
func TestThermalReplayFeedbackOff(t *testing.T) {
	rep, err := ThermalReplay(ThermalReplayConfig{
		Model:    dnn.AlexNet(),
		Mode:     sim.LayerByLayer,
		Profile:  ProfileStep,
		Seed:     1,
		Steps:    180,
		StepSec:  1,
		Feedback: false,
	})
	if err != nil {
		t.Fatalf("ThermalReplay: %v", err)
	}
	for i, pt := range rep.Series {
		if pt.Throttle != 1 || pt.Saturated || pt.AchievedUtil != pt.OfferedUtil {
			t.Fatalf("step %d degraded with feedback off: %+v", i, pt)
		}
	}
	if rep.Summary.CapacityLossPct != 0 {
		t.Errorf("capacity loss %g%% with feedback off", rep.Summary.CapacityLossPct)
	}
}

func TestThermalReplayDeterministic(t *testing.T) {
	run := func() []byte {
		rep, err := ThermalGolden()
		if err != nil {
			t.Fatalf("ThermalGolden: %v", err)
		}
		return goldenBytes(t, rep)
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Error("same-seed replays differ")
	}
}

func TestThermalCapacityTable(t *testing.T) {
	rows, err := ThermalCapacity(dnn.AlexNet(), sim.LayerByLayer, nil)
	if err != nil {
		t.Fatalf("ThermalCapacity: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	prev := 0.0
	for _, r := range rows {
		if r.OfferedUtil < prev {
			t.Fatalf("rows not sorted: %v after %v", r.OfferedUtil, prev)
		}
		prev = r.OfferedUtil
		if r.AchievedUtil > r.OfferedUtil+1e-12 {
			t.Errorf("achieved %g exceeds offered %g", r.AchievedUtil, r.OfferedUtil)
		}
	}
	// The top row must show thermal capacity loss (that is the experiment).
	top := rows[len(rows)-1]
	if top.OfferedUtil != 1.0 || top.AchievedUtil >= 1.0 || !top.Saturated {
		t.Errorf("full-load equilibrium not degraded: %+v", top)
	}
}

// recordThermalSteps applies the per-step reference updates for series to
// ref, one step at a time: the five gauges, the achieved-utilization
// histogram and the three step counters.
func recordThermalSteps(ref *obs.Registry, profile string, series []ThermalPoint) {
	lbl := obs.Label{Key: "profile", Value: profile}
	for _, pt := range series {
		ref.Gauge("spacx_thermal_max_chiplet_kelvin", pt.MaxChipletK, lbl)
		ref.Gauge("spacx_thermal_interposer_kelvin", pt.InterposerK, lbl)
		ref.Gauge("spacx_thermal_tuning_mw_per_ring", pt.TuningMwPerRing, lbl)
		ref.Gauge("spacx_thermal_margin_db", pt.MarginDB, lbl)
		ref.Gauge("spacx_thermal_throttle", pt.Throttle, lbl)
		ref.Observe("spacx_thermal_step_achieved_utilization_ratio", pt.AchievedUtil, lbl)
		ref.Count("spacx_thermal_steps_total", 1, lbl)
		if pt.Saturated {
			ref.Count("spacx_thermal_saturated_steps_total", 1, lbl)
		}
		if pt.Throttle < 1 {
			ref.Count("spacx_thermal_throttled_steps_total", 1, lbl)
		}
	}
}

// thermalSeries keeps a snapshot's spacx_thermal_* series, which leaves
// out the timing histogram spacx_exp_point_seconds.
func thermalSeries(s obs.Snapshot) obs.Snapshot {
	var out obs.Snapshot
	for _, p := range s.Counters {
		if strings.HasPrefix(p.Name, "spacx_thermal_") {
			out.Counters = append(out.Counters, p)
		}
	}
	for _, p := range s.Gauges {
		if strings.HasPrefix(p.Name, "spacx_thermal_") {
			out.Gauges = append(out.Gauges, p)
		}
	}
	for _, h := range s.Histograms {
		if strings.HasPrefix(h.Name, "spacx_thermal_") {
			out.Histograms = append(out.Histograms, h)
		}
	}
	return out
}

// TestThermalReplayRecordsMetrics pins the spacx_thermal_* series a
// sequence of replays leaves in the package recorder: they must equal a
// reference registry fed every returned step one update at a time, so
// gauges hold the last step, counters add up across replays, and a replay
// that never saturates or throttles creates neither of those series.
func TestThermalReplayRecordsMetrics(t *testing.T) {
	config := func(profile string, seed int64, steps int, feedback bool) ThermalReplayConfig {
		return ThermalReplayConfig{Model: dnn.AlexNet(), Mode: sim.LayerByLayer,
			Profile: profile, Seed: seed, Steps: steps, StepSec: 1, Feedback: feedback}
	}
	for _, tc := range []struct {
		name    string
		replays []ThermalReplayConfig
		// noDegraded: the registry must hold no saturated or throttled
		// series at all.
		noDegraded bool
	}{
		{name: "one step replay", replays: []ThermalReplayConfig{config(ProfileStep, 1, 180, true)}},
		{name: "replays accumulate", replays: []ThermalReplayConfig{
			config(ProfileStep, 1, 180, true),
			config(ProfileDiurnal, 3, 240, true),
			config(ProfileStep, 2, 60, true),
			config(ProfileBursty, 5, 120, true),
		}},
		{name: "feedback off", replays: []ThermalReplayConfig{config(ProfileStep, 1, 180, false)}, noDegraded: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, ref := obs.NewRegistry(nil), obs.NewRegistry(nil)
			SetRecorder(reg)
			defer SetRecorder(nil)
			for _, cfg := range tc.replays {
				rep, err := ThermalReplay(cfg)
				if err != nil {
					t.Fatalf("ThermalReplay(%s): %v", cfg.Profile, err)
				}
				recordThermalSteps(ref, cfg.Profile, rep.Series)
			}
			got, want := thermalSeries(reg.Snapshot()), thermalSeries(ref.Snapshot())
			if len(got.Gauges) < 5 || len(got.Histograms) == 0 || len(got.Counters) == 0 {
				t.Fatalf("too few spacx_thermal_* series: %+v", got)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("spacx_thermal_* series differ from per-step updates:\n got %+v\nwant %+v", got, want)
			}
			if tc.noDegraded {
				for _, p := range got.Counters {
					if p.Name != "spacx_thermal_steps_total" {
						t.Errorf("feedback-off replay created %s", p.Name)
					}
				}
			}
		})
	}

	// A step error still publishes the steps before it: the stepper
	// rejects a negative offered load at step 40.
	t.Run("step error", func(t *testing.T) {
		cfg := config(ProfileStep, 1, 60, true)
		offered, err := OfferedLoad(cfg.Profile, cfg.Seed, cfg.Steps)
		if err != nil {
			t.Fatal(err)
		}
		offered[40] = -1
		acc := sim.SPACXAccel()
		res, err := runModelCached(acc, cfg.Model, cfg.Mode)
		if err != nil {
			t.Fatal(err)
		}
		stepper := func() *sim.ThermalStepper {
			st, err := sim.NewThermalStepper(acc, res, sim.DefaultThermalConfig())
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		prefix, err := replay(stepper(), acc, res, cfg, offered[:40])
		if err != nil {
			t.Fatalf("replay of the first 40 steps: %v", err)
		}
		ref := obs.NewRegistry(nil)
		recordThermalSteps(ref, cfg.Profile, prefix.Series)

		reg := obs.NewRegistry(nil)
		SetRecorder(reg)
		defer SetRecorder(nil)
		if _, err := replay(stepper(), acc, res, cfg, offered); err == nil {
			t.Fatal("replay accepted a negative offered load")
		}
		got, want := thermalSeries(reg.Snapshot()), thermalSeries(ref.Snapshot())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("series after a step error differ from the steps before it:\n got %+v\nwant %+v", got, want)
		}
	})

	// Every step's achieved utilization lies in [0, 1], so the histogram
	// needs the unit buckets for its buckets and quantiles to carry
	// information.
	t.Run("utilization histogram", func(t *testing.T) {
		reg := obs.NewRegistry(nil)
		SetRecorder(reg)
		defer SetRecorder(nil)
		rep, err := ThermalReplay(config(ProfileDiurnal, 1, 120, true))
		if err != nil {
			t.Fatal(err)
		}
		var h *obs.HistogramData
		for _, hd := range reg.Snapshot().Histograms {
			if hd.Name == "spacx_thermal_step_achieved_utilization_ratio" {
				h = &hd
				break
			}
		}
		if h == nil || len(h.Buckets) == 0 {
			t.Fatalf("no achieved-utilization histogram: %+v", h)
		}
		if top := h.Buckets[len(h.Buckets)-1].LE; top != 1 {
			t.Fatalf("top finite bucket bound = %g, want 1 (unit buckets)", top)
		}
		utils := make([]float64, len(rep.Series))
		for i, pt := range rep.Series {
			utils[i] = pt.AchievedUtil
		}
		sort.Float64s(utils)
		n := len(utils)
		median := (utils[(n-1)/2] + utils[n/2]) / 2
		if q := h.Quantile(0.5); math.Abs(q-median) > 0.1 {
			t.Errorf("histogram median %g, series median %g: more than 0.1 apart", q, median)
		}
	})
}

// FuzzJSONFloat checks appendJSONFloat against json.Marshal over float64
// bit patterns: the same bytes, appended after what the buffer holds, for
// every finite value, and json.Marshal's error for NaN and the infinities.
func FuzzJSONFloat(f *testing.F) {
	for _, v := range []float64{
		1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		5e-324, math.Copysign(0, -1), -1e-7, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		got, err := appendJSONFloat([]byte("x"), v)
		want, wantErr := json.Marshal(v)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("appendJSONFloat(%#016x) error %v, want %v", bits, err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("appendJSONFloat(%#016x): %v", bits, err)
		}
		if string(got) != "x"+string(want) {
			t.Fatalf("appendJSONFloat(%#016x) = %q, json.Marshal %q", bits, got[1:], want)
		}
	})
}

// BenchmarkThermalReportWrite writes a 720-step diurnal replay report, the
// end-to-end benchmark's thermal recipe, as the /v1/thermal body.
func BenchmarkThermalReportWrite(b *testing.B) {
	rep, err := ThermalReplay(ThermalReplayConfig{
		Model: dnn.AlexNet(), Mode: sim.WholeInference, Profile: ProfileDiurnal,
		Seed: 1, Steps: 720, StepSec: 10, Feedback: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rep.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
