package thermal

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"spacx/internal/photonic"
)

func testCoupler(t *testing.T) *Coupler {
	t.Helper()
	cfg := DefaultCouplerConfig(photonic.ModerateTuning())
	cfg.Rings = 1000
	cfg.StaticHeatingW = 2.0
	c, err := NewCoupler(cfg)
	if err != nil {
		t.Fatalf("NewCoupler: %v", err)
	}
	c.Calibrate(320)
	return c
}

func TestNewCouplerValidation(t *testing.T) {
	base := DefaultCouplerConfig(photonic.ModerateTuning())
	bad := []func(*CouplerConfig){
		func(c *CouplerConfig) { c.MaxHeaterMw = 0 },
		func(c *CouplerConfig) { c.MaxHeaterMw = -1 },
		func(c *CouplerConfig) { c.MarginDB = -1 },
		func(c *CouplerConfig) { c.ResidualDBPerK = -1 },
		func(c *CouplerConfig) { c.DetunePenaltyDBPerNm = -1 },
		func(c *CouplerConfig) { c.MinThrottle = 0 },
		func(c *CouplerConfig) { c.MinThrottle = 1.5 },
		func(c *CouplerConfig) { c.Rings = -1 },
		// Cap below the static worst case: saturated at calibration.
		func(c *CouplerConfig) { c.MaxHeaterMw = 0.1 },
	}
	for i, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if _, err := NewCoupler(cfg); err == nil {
			t.Errorf("case %d: NewCoupler accepted %+v", i, cfg)
		}
	}
	if _, err := NewCoupler(base); err != nil {
		t.Fatalf("NewCoupler rejected default config: %v", err)
	}
}

func TestDisabledCouplerIsStatic(t *testing.T) {
	cfg := DefaultCouplerConfig(photonic.ModerateTuning())
	cfg.Enabled = false
	cfg.StaticHeatingW = 2.0
	c, err := NewCoupler(cfg)
	if err != nil {
		t.Fatalf("NewCoupler: %v", err)
	}
	c.Calibrate(320)
	for _, temp := range []float64{300, 320, 350, 400} {
		f := c.Evaluate(temp)
		if f.Throttle != 1 || f.ExcursionK != 0 || f.Saturated ||
			f.MarginDB != cfg.MarginDB || f.HeatingW != cfg.StaticHeatingW {
			t.Errorf("disabled coupler at %g K not static: %+v", temp, f)
		}
		if f.Err() != nil {
			t.Errorf("disabled coupler errors at %g K: %v", temp, f.Err())
		}
	}
	// A nil coupler is the degenerate disabled coupler.
	var nilC *Coupler
	if nilC.Enabled() {
		t.Error("nil coupler claims enabled")
	}
	if f := nilC.Evaluate(400); f.Throttle != 1 {
		t.Errorf("nil coupler feedback %+v", f)
	}
}

func TestEvaluateBelowCalibrationIsStatic(t *testing.T) {
	c := testCoupler(t)
	f := c.Evaluate(c.CalibrationK() - 5)
	if f.ExcursionK != 0 || f.Throttle != 1 || f.ExtraHeatingW != 0 {
		t.Errorf("cooling below calibration moved the feedback: %+v", f)
	}
}

// Small excursions: heaters track, tuning power rises monotonically, margin
// erodes by the residual slope only, no throttle.
func TestEvaluateTrackedExcursion(t *testing.T) {
	c := testCoupler(t)
	base := c.Static()
	prevMw := base.TuningMwPerRing
	// The default 15% headroom over worst case buys ~2 K of tracked
	// excursion for the moderate spec (0.78 mW / (0.1 nm/K / 0.25 nm/mW)).
	for _, dK := range []float64{0.4, 0.9, 1.6} {
		f := c.Evaluate(c.CalibrationK() + dK)
		if f.Saturated {
			t.Fatalf("+%g K saturated: %+v", dK, f)
		}
		if f.TuningMwPerRing <= prevMw {
			t.Errorf("+%g K: tuning power %g mW not above previous %g mW", dK, f.TuningMwPerRing, prevMw)
		}
		prevMw = f.TuningMwPerRing
		want := c.Config().MarginDB - c.Config().ResidualDBPerK*dK
		if math.Abs(f.MarginDB-want) > 1e-12 {
			t.Errorf("+%g K: margin %.12g dB, want %.12g dB", dK, f.MarginDB, want)
		}
		if f.Throttle != 1 {
			t.Errorf("+%g K: throttled to %g with positive margin", dK, f.Throttle)
		}
		if f.ExtraHeatingW <= 0 {
			t.Errorf("+%g K: no extra heater feedback heat", dK)
		}
		if f.Err() != nil {
			t.Errorf("+%g K: unexpected error %v", dK, f.Err())
		}
	}
}

// Error path: a large excursion saturates the heater DAC. The feedback
// clamps (tuning power at the cap), flags saturation, and Err() surfaces
// photonic.ErrHeaterSaturated for strict callers.
func TestEvaluateHeaterSaturation(t *testing.T) {
	c := testCoupler(t)
	// DefaultCouplerConfig provisions 15% over worst case; worst case covers
	// spread 4 K, so by +25 K the worst ring is far beyond the cap.
	f := c.Evaluate(c.CalibrationK() + 25)
	if !f.Saturated {
		t.Fatalf("+25 K did not saturate: %+v", f)
	}
	if f.TuningMwPerRing > c.Config().MaxHeaterMw+1e-12 {
		t.Errorf("tuning power %g mW exceeds cap %g mW", f.TuningMwPerRing, c.Config().MaxHeaterMw)
	}
	if f.UncompensatedNm <= 0 {
		t.Errorf("saturated but no uncompensated detuning: %+v", f)
	}
	err := f.Err()
	if !errors.Is(err, photonic.ErrHeaterSaturated) {
		t.Fatalf("Err() = %v, want ErrHeaterSaturated", err)
	}
}

// Evaluate compares the heater offsets against the cap itself; its tuning
// power and saturation flag must equal what the photonic power methods
// report for the drifted spec, over both tuning specs, several DAC caps
// (multiples of the static worst case, the smallest exactly at it) and
// excursions of 0-40 K.
func TestEvaluateMatchesHeaterPower(t *testing.T) {
	type row struct {
		name  string
		spec  photonic.TuningSpec
		capMw float64
		excK  float64
	}
	var rows []row
	for _, sp := range []struct {
		name string
		spec photonic.TuningSpec
	}{{"moderate", photonic.ModerateTuning()}, {"aggressive", photonic.AggressiveTuning()}} {
		worstMw := sp.spec.WorstCaseOffsetNm() / sp.spec.TuningNmPerMw
		for _, k := range []float64{1, 1.15, 2, 4} {
			for excK := 0.0; excK <= 40; excK += 0.25 {
				rows = append(rows, row{fmt.Sprintf("%s/cap%gx/+%gK", sp.name, k, excK), sp.spec, worstMw * k, excK})
			}
		}
	}
	for _, r := range rows {
		cfg := DefaultCouplerConfig(r.spec)
		cfg.MaxHeaterMw = r.capMw
		cfg.Rings = 1000
		c, err := NewCoupler(cfg)
		if err != nil {
			t.Fatalf("%s: NewCoupler: %v", r.name, err)
		}
		c.Calibrate(320)
		f := c.Evaluate(320 + r.excK)

		drifted := r.spec.WithTemperature(r.spec.TemperatureSpreadK + r.excK).WithHeaterCap(r.capMw)
		mean, err := drifted.MeanHeaterPower()
		wantMw := float64(mean)
		if errors.Is(err, photonic.ErrHeaterSaturated) {
			wantMw = r.capMw
		} else if err != nil {
			t.Fatalf("%s: MeanHeaterPower: %v", r.name, err)
		}
		_, err = drifted.WorstCaseHeaterPower()
		if err != nil && !errors.Is(err, photonic.ErrHeaterSaturated) {
			t.Fatalf("%s: WorstCaseHeaterPower: %v", r.name, err)
		}
		wantSat := errors.Is(err, photonic.ErrHeaterSaturated)
		if f.TuningMwPerRing != wantMw || f.Saturated != wantSat {
			t.Errorf("%s: Evaluate gives %v mW saturated=%v, power methods %v mW saturated=%v",
				r.name, f.TuningMwPerRing, f.Saturated, wantMw, wantSat)
		}
	}
}

// Error path: once the penalty eats the whole margin the throttle engages
// and Err() reports ErrNegativeMargin (saturation reported first if both).
func TestEvaluateNegativeMarginThrottles(t *testing.T) {
	c := testCoupler(t)
	f := c.Evaluate(c.CalibrationK() + 100)
	if f.MarginDB >= 0 {
		t.Fatalf("+100 K margin still %g dB", f.MarginDB)
	}
	if f.Throttle >= 1 {
		t.Fatalf("negative margin but throttle %g", f.Throttle)
	}
	if f.Throttle < c.Config().MinThrottle {
		t.Errorf("throttle %g below floor %g", f.Throttle, c.Config().MinThrottle)
	}
	// The linear power ratio, unless floored.
	want := math.Max(c.Config().MinThrottle, math.Pow(10, f.MarginDB/10))
	if math.Abs(f.Throttle-want) > 1e-12 {
		t.Errorf("throttle %g, want %g", f.Throttle, want)
	}

	// Negative margin without saturation: raise the residual slope so the
	// margin dies while heaters still track.
	cfg := DefaultCouplerConfig(photonic.ModerateTuning())
	cfg.ResidualDBPerK = 5
	c2, err := NewCoupler(cfg)
	if err != nil {
		t.Fatalf("NewCoupler: %v", err)
	}
	c2.Calibrate(320)
	f2 := c2.Evaluate(321)
	if f2.Saturated {
		t.Fatalf("+1 K saturated under default cap: %+v", f2)
	}
	if f2.MarginDB >= 0 {
		t.Fatalf("margin %g dB, want negative", f2.MarginDB)
	}
	if !errors.Is(f2.Err(), ErrNegativeMargin) {
		t.Errorf("Err() = %v, want ErrNegativeMargin", f2.Err())
	}
}

// Throttle monotonicity: hotter never yields more throughput.
func TestThrottleMonotone(t *testing.T) {
	c := testCoupler(t)
	prev := 1.0
	for dK := 0.0; dK <= 120; dK += 2.5 {
		f := c.Evaluate(c.CalibrationK() + dK)
		if f.Throttle > prev+1e-15 {
			t.Fatalf("throttle rose from %g to %g at +%g K", prev, f.Throttle, dK)
		}
		prev = f.Throttle
	}
	if prev != c.Config().MinThrottle {
		t.Errorf("deep throttle %g, want floor %g", prev, c.Config().MinThrottle)
	}
}
