package sim

import (
	"errors"
	"testing"

	"spacx/internal/dnn"
	"spacx/internal/photonic"
	"spacx/internal/thermal"
)

func thermalFixture(t *testing.T, feedback bool) (*ThermalStepper, ModelResult) {
	t.Helper()
	acc := SPACXAccel()
	res, err := Run(acc, dnn.AlexNet(), LayerByLayer)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cfg := DefaultThermalConfig()
	cfg.Feedback = feedback
	st, err := NewThermalStepper(acc, res, cfg)
	if err != nil {
		t.Fatalf("NewThermalStepper: %v", err)
	}
	return st, res
}

func TestNewThermalStepperValidation(t *testing.T) {
	acc := SPACXAccel()
	if _, err := NewThermalStepper(acc, ModelResult{}, DefaultThermalConfig()); err == nil {
		t.Error("accepted a result with zero ExecSec")
	}
	res, err := Run(acc, dnn.AlexNet(), LayerByLayer)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Feedback on a non-photonic network is a config error...
	if _, err := NewThermalStepper(SimbaAccel(), res, DefaultThermalConfig()); err == nil {
		t.Error("accepted feedback on the electrical Simba network")
	}
	// ...but feedback-off thermal tracking works for any network.
	cfg := DefaultThermalConfig()
	cfg.Feedback = false
	if _, err := NewThermalStepper(SimbaAccel(), res, cfg); err != nil {
		t.Errorf("feedback-off stepper on Simba: %v", err)
	}
}

// The coupler's calibration margin follows the configured tuning spec's
// params family, and an explicit MarginDB wins over the derivation.
func TestThermalConfigMarginFollowsSpec(t *testing.T) {
	acc := SPACXAccel()
	res, err := Run(acc, dnn.AlexNet(), LayerByLayer)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, tc := range []struct {
		name string
		spec photonic.TuningSpec
		want float64
	}{
		{"moderate", photonic.ModerateTuning(), float64(photonic.Moderate().SystemMargin)},
		{"aggressive", photonic.AggressiveTuning(), float64(photonic.Aggressive().SystemMargin)},
	} {
		cfg := DefaultThermalConfig()
		cfg.Spec = tc.spec
		st, err := NewThermalStepper(acc, res, cfg)
		if err != nil {
			t.Fatalf("%s: NewThermalStepper: %v", tc.name, err)
		}
		if got := st.Coupler().Static().MarginDB; got != tc.want {
			t.Errorf("%s: margin = %g dB, want %g dB", tc.name, got, tc.want)
		}
	}
	cfg := DefaultThermalConfig()
	cfg.MarginDB = 2.5
	st, err := NewThermalStepper(acc, res, cfg)
	if err != nil {
		t.Fatalf("explicit margin: NewThermalStepper: %v", err)
	}
	if got := st.Coupler().Static().MarginDB; got != 2.5 {
		t.Errorf("explicit margin = %g dB, want 2.5 dB", got)
	}
}

func TestThermalStepperCalibratesAtIdle(t *testing.T) {
	st, _ := thermalFixture(t, true)
	cal := st.Coupler().CalibrationK()
	if got := st.Network().MaxChipletK(); got != cal {
		t.Fatalf("initial max chiplet %g K != calibration %g K", got, cal)
	}
	if cal <= thermal.DefaultConfig().AmbientK {
		t.Fatalf("calibration %g K not above ambient — static power missing", cal)
	}
	// At idle the feedback must be static: no excursion, full margin.
	s, err := st.Step(0, 1.0)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if s.Throttle != 1 || s.Saturated {
		t.Errorf("idle step not static: %+v", s)
	}
}

func TestThermalStepRejectsBadInput(t *testing.T) {
	st, _ := thermalFixture(t, true)
	if _, err := st.Step(-1, 1); err == nil {
		t.Error("Step accepted negative utilization")
	}
	if _, err := st.Step(1, 0); err == nil {
		t.Error("Step accepted zero dt")
	}
	if _, err := st.RunSteady(-1); err == nil {
		t.Error("RunSteady accepted negative utilization")
	}
}

// The acceptance scenario: sustained full load raises die temperature,
// which raises tuning power, which (heaters saturated, margin gone)
// throttles throughput — the closed causal chain of the feedback loop.
func TestThermalFeedbackLoopThrottlesUnderSustainedLoad(t *testing.T) {
	st, _ := thermalFixture(t, true)
	first, err := st.Step(1.0, 1.0)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	var last ThermalSample
	for i := 0; i < 179; i++ {
		last, err = st.Step(1.0, 1.0)
		if err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
	}
	if last.MaxChipletK <= first.MaxChipletK+1 {
		t.Errorf("temperature did not rise: %g -> %g K", first.MaxChipletK, last.MaxChipletK)
	}
	if last.TuningMwPerRing <= first.TuningMwPerRing {
		t.Errorf("tuning power did not rise: %g -> %g mW", first.TuningMwPerRing, last.TuningMwPerRing)
	}
	if !last.Saturated {
		t.Errorf("heaters did not saturate at sustained full load: %+v", last)
	}
	if last.MarginDB >= 0 {
		t.Errorf("margin did not go negative: %g dB", last.MarginDB)
	}
	if last.Throttle >= 1 || last.AchievedUtil >= 1 {
		t.Errorf("throughput did not throttle: throttle=%g achieved=%g", last.Throttle, last.AchievedUtil)
	}
	if last.TimeSec != 180 {
		t.Errorf("TimeSec = %g, want 180", last.TimeSec)
	}
}

// With feedback off the stepper still tracks temperature but never moves
// the photonic operating point: throttle 1, calibration tuning power,
// margin intact — at any load, forever.
func TestThermalFeedbackOffIsStatic(t *testing.T) {
	st, _ := thermalFixture(t, false)
	static := st.Coupler().Static()
	for i := 0; i < 120; i++ {
		s, err := st.Step(1.0, 1.0)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if s.Throttle != 1 || s.AchievedUtil != 1 || s.Saturated ||
			s.TuningMwPerRing != static.TuningMwPerRing || s.MarginDB != static.MarginDB {
			t.Fatalf("step %d moved the photonic point: %+v", i, s)
		}
	}
	if st.Network().MaxChipletK() <= st.Coupler().CalibrationK() {
		t.Error("feedback-off stepper should still integrate temperature")
	}
}

func TestRunSteadyStrictErrors(t *testing.T) {
	st, _ := thermalFixture(t, true)
	// Light load: equilibrium within the tracked band, no error.
	s, err := st.RunSteady(0.05)
	if err != nil {
		t.Fatalf("RunSteady(0.05): %v", err)
	}
	if s.Throttle != 1 {
		t.Errorf("light load throttled: %+v", s)
	}
	// Full load: the fixed point saturates the heaters — strict mode errors,
	// and the sample still describes the degraded equilibrium.
	s, err = st.RunSteady(1.0)
	if !errors.Is(err, photonic.ErrHeaterSaturated) && !errors.Is(err, thermal.ErrNegativeMargin) {
		t.Fatalf("RunSteady(1.0) err = %v, want saturation or negative margin", err)
	}
	if s.AchievedUtil >= 1 || s.Throttle >= 1 {
		t.Errorf("degraded equilibrium not throttled: %+v", s)
	}
	// RunSteady must not disturb the transient state.
	if got, want := st.Network().MaxChipletK(), st.Coupler().CalibrationK(); got != want {
		t.Errorf("RunSteady mutated stepper temps: %g K vs %g K", got, want)
	}
}

// Determinism: the full transient trajectory is bit-identical across runs.
func TestThermalStepperDeterministic(t *testing.T) {
	run := func() []ThermalSample {
		st, _ := thermalFixture(t, true)
		out := make([]ThermalSample, 0, 60)
		for i := 0; i < 60; i++ {
			u := 0.5 + 0.5*float64(i%10)/9
			s, err := st.Step(u, 1.0)
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			out = append(out, s)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d diverged:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
