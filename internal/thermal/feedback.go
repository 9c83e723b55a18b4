package thermal

import (
	"errors"
	"fmt"
	"math"

	"spacx/internal/photonic"
)

// ErrNegativeMargin reports that thermal drift has eaten the whole optical
// system margin: the worst-case channel no longer closes at full rate and
// the link must throttle. Strict callers (the steady-state convergence API)
// propagate it; the replay driver records the throttled sample and carries
// on.
var ErrNegativeMargin = errors.New("thermal: loss-budget margin negative under thermal drift")

// CouplerConfig parameterizes the temperature -> photonics feedback.
type CouplerConfig struct {
	// Spec is the tuning spec at the calibration point — the static
	// Table III/IV spec whose TemperatureSpreadK the rings were trimmed for.
	Spec photonic.TuningSpec
	// MaxHeaterMw is the per-ring tuning DAC cap. The default provisions the
	// static worst case with ~15% headroom, so saturation is reachable under
	// sustained load but never at calibration.
	MaxHeaterMw float64
	// MarginDB is the system margin available at calibration
	// (photonic.Params.SystemMargin in the loss budget: 4 dB).
	MarginDB float64
	// ResidualDBPerK erodes the margin per kelvin of excursion even while
	// heaters keep up: thermal gradients across a broadcast group leave a
	// residual detuning spread the shared splitter bias cannot null.
	ResidualDBPerK float64
	// DetunePenaltyDBPerNm converts uncompensated detuning (heaters
	// saturated) into drop-port insertion-loss penalty — the slope of the
	// ring filter skirt near resonance.
	DetunePenaltyDBPerNm float64
	// MinThrottle floors the feedback throttle so a deeply negative margin
	// degrades instead of deadlocking the replay at zero throughput.
	MinThrottle float64

	// Rings is the ring population whose heaters track temperature; the
	// extra tuning power above calibration feeds back into the RC network
	// as heat.
	Rings int
	// StaticHeatingW is the always-on heater draw at calibration (the
	// network model's static heating part).
	StaticHeatingW float64
	// HeatingGBFrac is the share of heater power on the GB die.
	HeatingGBFrac float64

	// Enabled turns the feedback on. A disabled coupler evaluates to the
	// exact static operating point: zero excursion, calibration tuning
	// power, full margin, throttle 1 — the provably-static path.
	Enabled bool
}

// DefaultCouplerConfig returns the feedback constants for a tuning spec:
// a DAC provisioned 15% over the static worst case, the paper's 4 dB system
// margin, and coarse gradient/skirt slopes.
func DefaultCouplerConfig(spec photonic.TuningSpec) CouplerConfig {
	worst := spec.WorstCaseOffsetNm() / spec.TuningNmPerMw
	return CouplerConfig{
		Spec:                 spec,
		MaxHeaterMw:          worst * 1.15,
		MarginDB:             4,
		ResidualDBPerK:       0.05,
		DetunePenaltyDBPerNm: 8,
		MinThrottle:          0.05,
		Enabled:              true,
	}
}

// Feedback is the photonic state at one die temperature.
type Feedback struct {
	// ExcursionK is the die temperature above the calibration point.
	ExcursionK float64
	// TuningMwPerRing is the mean per-ring heater power at this excursion,
	// clamped at the DAC cap.
	TuningMwPerRing float64
	// ExtraHeatingW is heater power above calibration across the ring
	// population — the heat the loop feeds back into the RC network.
	ExtraHeatingW float64
	// HeatingW is the total heater draw: static interface heaters plus the
	// extra tuning power.
	HeatingW float64
	// Saturated reports that the worst-case ring's heater hit the DAC cap.
	Saturated bool
	// UncompensatedNm is the worst-case detuning left after saturation.
	UncompensatedNm float64
	// MarginDB is the remaining system margin (negative once drift has
	// eaten it all).
	MarginDB float64
	// Throttle is the achievable fraction of full throughput: 1 while the
	// margin holds, the linear power ratio 10^(margin/10) once it goes
	// negative, floored at MinThrottle.
	Throttle float64
}

// Err maps the feedback state to the strict-mode error contract: heater
// saturation and negative margin are errors for callers that must not
// silently degrade.
func (f Feedback) Err() error {
	if f.Saturated {
		return fmt.Errorf("%w: %.2f nm uncompensated at +%.1f K",
			photonic.ErrHeaterSaturated, f.UncompensatedNm, f.ExcursionK)
	}
	if f.MarginDB < 0 {
		return fmt.Errorf("%w: %.2f dB at +%.1f K", ErrNegativeMargin, f.MarginDB, f.ExcursionK)
	}
	return nil
}

// Coupler maps die temperatures back into the photonic operating point.
type Coupler struct {
	cfg    CouplerConfig
	baseMw float64 // calibration mean heater power per ring
	baseK  float64 // calibration temperature
}

// NewCoupler validates the config and fixes the calibration operating
// point. The static spec must be deliverable under the DAC cap — a config
// saturated at calibration is a provisioning error, not a thermal one.
func NewCoupler(cfg CouplerConfig) (*Coupler, error) {
	if cfg.MaxHeaterMw <= 0 {
		return nil, fmt.Errorf("thermal: heater cap must be positive, got %g", cfg.MaxHeaterMw)
	}
	if cfg.MarginDB < 0 {
		return nil, fmt.Errorf("thermal: calibration margin must be >= 0, got %g", cfg.MarginDB)
	}
	if cfg.ResidualDBPerK < 0 || cfg.DetunePenaltyDBPerNm < 0 {
		return nil, fmt.Errorf("thermal: penalty slopes must be >= 0: %+v", cfg)
	}
	if cfg.MinThrottle <= 0 || cfg.MinThrottle > 1 {
		return nil, fmt.Errorf("thermal: MinThrottle must be in (0,1], got %g", cfg.MinThrottle)
	}
	if cfg.Rings < 0 {
		return nil, fmt.Errorf("thermal: negative ring count %d", cfg.Rings)
	}
	capped := cfg.Spec.WithHeaterCap(cfg.MaxHeaterMw)
	base, err := capped.MeanHeaterPower()
	if err != nil {
		return nil, fmt.Errorf("thermal: static spec not deliverable: %w", err)
	}
	if _, err := capped.WorstCaseHeaterPower(); err != nil {
		return nil, fmt.Errorf("thermal: static spec not deliverable: %w", err)
	}
	return &Coupler{cfg: cfg, baseMw: float64(base)}, nil
}

// Config returns the coupler's configuration.
func (c *Coupler) Config() CouplerConfig { return c.cfg }

// Enabled reports whether the feedback is on. A nil coupler is a valid
// disabled one.
func (c *Coupler) Enabled() bool { return c != nil && c.cfg.Enabled }

// Calibrate fixes the temperature at which the static spec holds — the
// thermal equilibrium the rings were trimmed at (steppers use the idle
// steady-state die temperature). Excursions are measured from here.
func (c *Coupler) Calibrate(tempK float64) { c.baseK = tempK }

// CalibrationK returns the calibration temperature.
func (c *Coupler) CalibrationK() float64 { return c.baseK }

// Static returns the calibration-point feedback: the state a disabled
// coupler reports at any temperature. Nil-safe.
func (c *Coupler) Static() Feedback {
	f := Feedback{Throttle: 1}
	if c != nil {
		f.TuningMwPerRing = c.baseMw
		f.HeatingW = c.cfg.StaticHeatingW
		f.MarginDB = c.cfg.MarginDB
	}
	return f
}

// Evaluate maps a die temperature to the photonic feedback state. With the
// feedback disabled (or a nil coupler) it returns Static() regardless of
// temperature — the provably-static path the differential tests pin down.
func (c *Coupler) Evaluate(tempK float64) Feedback {
	if !c.Enabled() {
		return c.Static()
	}
	f := c.Static()
	f.ExcursionK = math.Max(0, tempK-c.baseK)
	if f.ExcursionK == 0 {
		return f
	}

	// The rings must now absorb the static spread plus the excursion. The
	// heater powers are the MeanHeaterPower/WorstCaseHeaterPower figures,
	// compared against the cap here: NewCoupler validated the spec and
	// drift only raises the spread, so the cap is the only way they fail.
	spec := c.cfg.Spec.
		WithTemperature(c.cfg.Spec.TemperatureSpreadK + f.ExcursionK).
		WithHeaterCap(c.cfg.MaxHeaterMw)

	meanMw := spec.MeanOffsetNm() / spec.TuningNmPerMw
	if meanMw > c.cfg.MaxHeaterMw {
		meanMw = c.cfg.MaxHeaterMw
	}
	f.TuningMwPerRing = meanMw
	f.ExtraHeatingW = math.Max(0, meanMw-c.baseMw) * float64(c.cfg.Rings) / 1000
	f.HeatingW = c.cfg.StaticHeatingW + f.ExtraHeatingW

	if worstNm := spec.WorstCaseOffsetNm(); worstNm/spec.TuningNmPerMw > c.cfg.MaxHeaterMw {
		f.Saturated = true
		f.UncompensatedNm = worstNm - spec.CompensableNm()
	}

	f.MarginDB = c.cfg.MarginDB -
		c.cfg.ResidualDBPerK*f.ExcursionK -
		c.cfg.DetunePenaltyDBPerNm*f.UncompensatedNm
	if f.MarginDB < 0 {
		f.Throttle = math.Max(c.cfg.MinThrottle, math.Pow(10, f.MarginDB/10))
	}
	return f
}
