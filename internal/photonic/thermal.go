package photonic

import (
	"errors"
	"fmt"
	"math"
)

// Thermal tuning model (Section II-A1: an MRR "is tuned by a resistive
// heater controlled by a thermal tuning unit to mitigate thermal and process
// variations"). The heater must pull the ring's resonance back onto its
// wavelength against die-temperature drift and fabrication variation; this
// model derives the expected heater power from those physical quantities so
// the Table III/IV heater constants (2 mW moderate, 320 uW aggressive) can
// be cross-checked rather than taken on faith.

const (
	// ResonanceDriftNmPerK is the silicon ring resonance drift per kelvin
	// (~0.08-0.11 nm/K; thermo-optic coefficient of Si).
	ResonanceDriftNmPerK = 0.1

	// HeaterTuningNmPerMw is the resonance shift one milliwatt of heater
	// power buys for a conventional (un-trenched) micro-heater.
	HeaterTuningNmPerMw = 0.25

	// InsulatedTuningNmPerMw is the same for a thermally isolated
	// (undercut/trench) heater — the aggressive assumption.
	InsulatedTuningNmPerMw = 1.6
)

// ErrHeaterSaturated reports that a ring's required heater power exceeds the
// tuning DAC's provisioned maximum: the heater can no longer pull the ring
// back on resonance and the uncompensated detuning erodes the link margin.
// Callers that can degrade gracefully (the thermal feedback coupler) detect
// it with errors.Is and clamp; strict callers propagate it.
var ErrHeaterSaturated = errors.New("photonic: heater power exceeds tuning DAC maximum")

// TuningSpec describes the variation a ring population must absorb.
type TuningSpec struct {
	// TemperatureSpreadK is the worst-case die temperature excursion the
	// rings must track (heaters can only heat, so rings are fabricated
	// red-shifted and trimmed down; the spread sets the mean trim).
	TemperatureSpreadK float64
	// ProcessSigmaNm is the fabrication-induced resonance sigma.
	ProcessSigmaNm float64
	// TuningNmPerMw is the heater efficiency.
	TuningNmPerMw float64
	// MaxHeaterMw caps the per-ring heater power the tuning DAC can deliver;
	// 0 (the default of the static Table III/IV specs) means uncapped, so
	// the static figure paths never hit the saturation error.
	MaxHeaterMw float64
}

// WithTemperature returns the spec with the worst-case die-temperature
// excursion replaced by spreadK — the dynamic-excursion path the thermal
// feedback loop drives as the interposer heats. Negative spreads are
// rejected by the power methods, matching the static constructor contract.
func (s TuningSpec) WithTemperature(spreadK float64) TuningSpec {
	s.TemperatureSpreadK = spreadK
	return s
}

// WithHeaterCap returns the spec with the per-ring heater DAC cap set
// (0 restores the uncapped static behavior).
func (s TuningSpec) WithHeaterCap(maxMw float64) TuningSpec {
	s.MaxHeaterMw = maxMw
	return s
}

// checkCap enforces the DAC cap on a computed heater power.
func (s TuningSpec) checkCap(p Milliwatt) (Milliwatt, error) {
	if s.MaxHeaterMw < 0 {
		return 0, fmt.Errorf("photonic: negative heater cap %v", s.MaxHeaterMw)
	}
	if s.MaxHeaterMw > 0 && float64(p) > s.MaxHeaterMw {
		return p, fmt.Errorf("%w: need %.3f mW, cap %.3f mW", ErrHeaterSaturated, float64(p), s.MaxHeaterMw)
	}
	return p, nil
}

// ModerateTuning mirrors the Table III operating point.
func ModerateTuning() TuningSpec {
	return TuningSpec{TemperatureSpreadK: 4, ProcessSigmaNm: 0.3, TuningNmPerMw: HeaterTuningNmPerMw}
}

// AggressiveTuning mirrors Table IV (isolated heaters, tighter process).
func AggressiveTuning() TuningSpec {
	return TuningSpec{TemperatureSpreadK: 2, ProcessSigmaNm: 0.2, TuningNmPerMw: InsulatedTuningNmPerMw}
}

// MeanHeaterPower returns the expected per-ring heater power: the mean
// resonance offset a ring must trim is half the thermal excursion plus the
// folded-normal mean of the process variation (sigma * sqrt(2/pi)).
func (s TuningSpec) MeanHeaterPower() (Milliwatt, error) {
	if s.TuningNmPerMw <= 0 {
		return 0, fmt.Errorf("photonic: non-positive tuning efficiency %v", s.TuningNmPerMw)
	}
	if s.TemperatureSpreadK < 0 || s.ProcessSigmaNm < 0 {
		return 0, fmt.Errorf("photonic: negative variation spec %+v", s)
	}
	return s.checkCap(Milliwatt(s.MeanOffsetNm() / s.TuningNmPerMw))
}

// WorstCaseHeaterPower budgets three sigma of process variation on top of
// the full thermal excursion — the provisioning point for the tuning DAC.
func (s TuningSpec) WorstCaseHeaterPower() (Milliwatt, error) {
	if s.TuningNmPerMw <= 0 {
		return 0, fmt.Errorf("photonic: non-positive tuning efficiency %v", s.TuningNmPerMw)
	}
	worstNm := s.TemperatureSpreadK*ResonanceDriftNmPerK + 3*s.ProcessSigmaNm
	return s.checkCap(Milliwatt(worstNm / s.TuningNmPerMw))
}

// MeanOffsetNm returns the mean resonance offset a ring must trim: half the
// thermal excursion plus the folded-normal mean of the process variation
// (sigma * sqrt(2/pi)). The feedback coupler compares it against the heater
// cap directly, without building MeanHeaterPower's saturation error.
func (s TuningSpec) MeanOffsetNm() float64 {
	return s.TemperatureSpreadK*ResonanceDriftNmPerK/2 +
		s.ProcessSigmaNm*math.Sqrt(2/math.Pi)
}

// WorstCaseOffsetNm returns the worst-case resonance offset the spec asks a
// ring to trim: the full thermal excursion plus three sigma of process
// variation. The feedback coupler uses it to size uncompensated detuning
// once the heater saturates.
func (s TuningSpec) WorstCaseOffsetNm() float64 {
	return s.TemperatureSpreadK*ResonanceDriftNmPerK + 3*s.ProcessSigmaNm
}

// CompensableNm returns the resonance shift the capped heater can deliver;
// +Inf when the spec is uncapped.
func (s TuningSpec) CompensableNm() float64 {
	if s.MaxHeaterMw <= 0 {
		return math.Inf(1)
	}
	return s.MaxHeaterMw * s.TuningNmPerMw
}
