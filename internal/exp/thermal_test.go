package exp

import (
	"bytes"
	"testing"

	"spacx/internal/dnn"
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
