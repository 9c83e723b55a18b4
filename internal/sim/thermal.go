package sim

import (
	"fmt"
	"math"

	"spacx/internal/floorplan"
	"spacx/internal/network/spacxnet"
	"spacx/internal/photonic"
	"spacx/internal/thermal"
)

// Thermal co-simulation: closes the loop between the analytical simulator
// and the internal/thermal RC network. A static ModelResult fixes the
// full-load operating point (average compute power, network dynamic power,
// laser and heater draw); the stepper then walks an offered-utilization
// trace through the RC network, feeding die temperatures back into ring
// tuning power, loss-budget margin, and — once the margin goes negative —
// a throughput throttle.

// ThermalConfig parameterizes the co-simulation.
type ThermalConfig struct {
	// Network holds the RC constants; the zero value means
	// thermal.DefaultConfig().
	Network thermal.Config
	// Spec is the ring tuning spec at calibration; the zero value means
	// photonic.ModerateTuning().
	Spec photonic.TuningSpec
	// MaxHeaterMw caps the per-ring tuning DAC; 0 takes the
	// thermal.DefaultCouplerConfig provisioning (15% over static worst case).
	MaxHeaterMw float64
	// MarginDB is the loss-budget margin at calibration that thermal drift
	// erodes; 0 takes the SystemMargin of the photonic params family
	// matching Spec (Aggressive for insulated heaters, Moderate otherwise).
	MarginDB float64
	// Feedback closes the loop. With Feedback false the stepper still
	// integrates temperatures but the coupler stays at its static point:
	// throttle 1, calibration tuning power — results identical to the
	// static simulator.
	Feedback bool

	// Power-split fractions of the operating point (see
	// thermal.OperatingPoint); zero values take the defaults below.
	GBFrac         float64
	NetGBFrac      float64
	OnDieLaserFrac float64
}

// DefaultThermalConfig returns the evaluation constants: GB die carries 30%
// of compute power (GB SRAM + DRAM PHY) and half the network dynamic power
// (modulator bank + return receivers); 8% of laser wall-plug power is
// dissipated on-package (coupler loss, absorbed light).
func DefaultThermalConfig() ThermalConfig {
	return ThermalConfig{
		Network:        thermal.DefaultConfig(),
		Spec:           photonic.ModerateTuning(),
		Feedback:       true,
		GBFrac:         0.30,
		NetGBFrac:      0.50,
		OnDieLaserFrac: 0.08,
	}
}

func (c ThermalConfig) withDefaults() ThermalConfig {
	if c.Network == (thermal.Config{}) {
		c.Network = thermal.DefaultConfig()
	}
	if c.Spec == (photonic.TuningSpec{}) {
		c.Spec = photonic.ModerateTuning()
	}
	if c.MarginDB == 0 {
		if c.Spec.TuningNmPerMw == photonic.InsulatedTuningNmPerMw {
			c.MarginDB = float64(photonic.Aggressive().SystemMargin)
		} else {
			c.MarginDB = float64(photonic.Moderate().SystemMargin)
		}
	}
	if c.GBFrac == 0 {
		c.GBFrac = 0.30
	}
	if c.NetGBFrac == 0 {
		c.NetGBFrac = 0.50
	}
	if c.OnDieLaserFrac == 0 {
		c.OnDieLaserFrac = 0.08
	}
	return c
}

// ThermalSample is one step of the co-simulation time series.
type ThermalSample struct {
	TimeSec float64

	// OfferedUtil is the load the trace asked for; AchievedUtil is what the
	// feedback throttle let through.
	OfferedUtil  float64
	AchievedUtil float64

	// Die temperatures after the step (kelvin).
	MaxChipletK  float64
	MeanChipletK float64
	GBK          float64
	InterposerK  float64

	// Photonic feedback state the step ran under.
	TuningMwPerRing float64
	ExtraHeatingW   float64
	MarginDB        float64
	Throttle        float64
	Saturated       bool

	// PackageW is the heat injected during the step.
	PackageW float64
}

// ThermalStepper advances the coupled simulation.
type ThermalStepper struct {
	net     *thermal.Network
	coupler *thermal.Coupler
	base    thermal.OperatingPoint // full-load point; Utilization/HeatingW vary per step
	timeSec float64
}

// thermalPlanSpec derives the floorplan spec for an accelerator: its chiplet
// count with the dataflow's broadcast grouping when set (the SPACX GEF must
// divide M; WS baselines leave it zero and get the largest divisor <= 8).
func thermalPlanSpec(acc Accelerator) floorplan.Spec {
	spec := floorplan.DefaultSpec()
	spec.M = acc.Arch.M
	if acc.Arch.GEF > 0 && spec.M%acc.Arch.GEF == 0 {
		spec.GEF = acc.Arch.GEF
		return spec
	}
	spec.GEF = 1
	for g := 2; g <= 8; g++ {
		if spec.M%g == 0 {
			spec.GEF = g
		}
	}
	return spec
}

// NewThermalStepper builds the coupled thermal model around a static
// simulation result. The accelerator's network must be the SPACX photonic
// network when feedback is enabled — the ring census and heater split come
// from its configuration. The stepper starts at the idle thermal
// equilibrium (static laser and heater power, zero utilization), which is
// also the ring calibration point.
func NewThermalStepper(acc Accelerator, res ModelResult, cfg ThermalConfig) (*ThermalStepper, error) {
	cfg = cfg.withDefaults()
	if res.ExecSec <= 0 {
		return nil, fmt.Errorf("sim: thermal stepper needs a result with positive ExecSec, got %g", res.ExecSec)
	}

	plan, err := floorplan.Build(thermalPlanSpec(acc))
	if err != nil {
		return nil, fmt.Errorf("sim: thermal floorplan: %w", err)
	}
	net, err := thermal.NewNetwork(plan, cfg.Network)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	static := acc.Arch.Net.StaticPower()
	ccfg := thermal.DefaultCouplerConfig(cfg.Spec)
	if cfg.MaxHeaterMw > 0 {
		ccfg.MaxHeaterMw = cfg.MaxHeaterMw
	}
	ccfg.MarginDB = cfg.MarginDB
	ccfg.StaticHeatingW = static.Heating
	ccfg.Enabled = cfg.Feedback
	if sx, ok := acc.Arch.Net.(*spacxnet.Model); ok {
		nc := sx.Config()
		ccfg.Rings = nc.TotalMRRs()
		if t := nc.TotalMRRs(); t > 0 {
			ccfg.HeatingGBFrac = float64(nc.GBTransmitters()+nc.GBReceivers()) / float64(t)
		}
	} else if cfg.Feedback {
		return nil, fmt.Errorf("sim: thermal feedback requires the SPACX photonic network, got %s", acc.Arch.Net.Name())
	}
	coupler, err := thermal.NewCoupler(ccfg)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	s := &ThermalStepper{
		net:     net,
		coupler: coupler,
		base: thermal.OperatingPoint{
			ComputeW:       res.ComputeEnergy / res.ExecSec,
			GBFrac:         cfg.GBFrac,
			NetDynamicW:    res.NetDynamic.Total() / res.ExecSec,
			NetGBFrac:      cfg.NetGBFrac,
			LaserW:         static.Laser,
			OnDieLaserFrac: cfg.OnDieLaserFrac,
			HeatingW:       static.Heating,
			HeatingGBFrac:  ccfg.HeatingGBFrac,
		},
	}
	if err := s.base.Validate(); err != nil {
		return nil, fmt.Errorf("sim: derived operating point: %w", err)
	}

	// Idle equilibrium: static laser + heater power, no activity. This is
	// both the initial condition and the ring calibration temperature.
	idle := s.base
	idle.Utilization = 0
	src, err := net.Sources(idle)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	temps, err := net.SteadyState(src)
	if err != nil {
		return nil, fmt.Errorf("sim: idle equilibrium: %w", err)
	}
	if err := net.SetTemps(temps); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	coupler.Calibrate(net.MaxChipletK())
	return s, nil
}

// Network exposes the RC network (read-mostly: node kinds and temperatures
// for reporting).
func (s *ThermalStepper) Network() *thermal.Network { return s.net }

// Coupler exposes the feedback coupler.
func (s *ThermalStepper) Coupler() *thermal.Coupler { return s.coupler }

// TimeSec returns the simulated time advanced so far.
func (s *ThermalStepper) TimeSec() float64 { return s.timeSec }

// sample builds the time-series record for the feedback state fb and the
// achieved load after the network advanced.
func (s *ThermalStepper) sample(offered, achieved, packageW float64, fb thermal.Feedback) ThermalSample {
	return ThermalSample{
		TimeSec:         s.timeSec,
		OfferedUtil:     offered,
		AchievedUtil:    achieved,
		MaxChipletK:     s.net.MaxChipletK(),
		MeanChipletK:    s.net.MeanChipletK(),
		GBK:             s.net.Temp(s.net.GBNode()),
		InterposerK:     s.net.Temp(s.net.InterposerNode()),
		TuningMwPerRing: fb.TuningMwPerRing,
		ExtraHeatingW:   fb.ExtraHeatingW,
		MarginDB:        fb.MarginDB,
		Throttle:        fb.Throttle,
		Saturated:       fb.Saturated,
		PackageW:        packageW,
	}
}

// Step advances the coupled simulation by dt seconds at the given offered
// utilization. The feedback is evaluated at the temperatures entering the
// step and held for the whole step (explicit coupling: the RC network
// integrates constant sources exactly); the returned sample carries the
// temperatures after the step.
func (s *ThermalStepper) Step(offeredUtil, dt float64) (ThermalSample, error) {
	if offeredUtil < 0 {
		return ThermalSample{}, fmt.Errorf("sim: negative offered utilization %g", offeredUtil)
	}
	if dt <= 0 {
		return ThermalSample{}, fmt.Errorf("sim: thermal step must be positive, got %g", dt)
	}
	fb := s.coupler.Evaluate(s.net.MaxChipletK())
	achieved := offeredUtil * fb.Throttle
	op := s.base
	op.Utilization = achieved
	op.HeatingW = fb.HeatingW
	src, err := s.net.Sources(op)
	if err != nil {
		return ThermalSample{}, fmt.Errorf("sim: %w", err)
	}
	if err := s.net.Advance(src, dt); err != nil {
		return ThermalSample{}, fmt.Errorf("sim: %w", err)
	}
	s.timeSec += dt
	return s.sample(offeredUtil, achieved, op.TotalW(), fb), nil
}

// RunSteady finds the self-consistent equilibrium at a constant offered
// utilization without touching the stepper's transient state: temperatures
// that produce a feedback whose heating and throttle reproduce those
// temperatures. It is the strict-mode API — heater saturation or negative
// margin at the fixed point returns the sample alongside the feedback
// error (photonic.ErrHeaterSaturated / thermal.ErrNegativeMargin).
func (s *ThermalStepper) RunSteady(offeredUtil float64) (ThermalSample, error) {
	if offeredUtil < 0 {
		return ThermalSample{}, fmt.Errorf("sim: negative offered utilization %g", offeredUtil)
	}
	fb := s.coupler.Static()
	var temps []float64
	maxChiplet := func() float64 {
		max := temps[0]
		for _, t := range temps[1:s.net.Chiplets()] {
			if t > max {
				max = t
			}
		}
		return max
	}
	const iters = 200
	for i := 0; i < iters; i++ {
		achieved := offeredUtil * fb.Throttle
		op := s.base
		op.Utilization = achieved
		op.HeatingW = fb.HeatingW
		src, err := s.net.Sources(op)
		if err != nil {
			return ThermalSample{}, fmt.Errorf("sim: %w", err)
		}
		next, err := s.net.SteadyState(src)
		if err != nil {
			return ThermalSample{}, fmt.Errorf("sim: %w", err)
		}
		converged := temps != nil
		if converged {
			for j := range next {
				if math.Abs(next[j]-temps[j]) > 1e-9 {
					converged = false
					break
				}
			}
		}
		temps = next
		fb = s.coupler.Evaluate(maxChiplet())
		if converged {
			sample := ThermalSample{
				OfferedUtil:     offeredUtil,
				AchievedUtil:    offeredUtil * fb.Throttle,
				MaxChipletK:     maxChiplet(),
				TuningMwPerRing: fb.TuningMwPerRing,
				ExtraHeatingW:   fb.ExtraHeatingW,
				MarginDB:        fb.MarginDB,
				Throttle:        fb.Throttle,
				Saturated:       fb.Saturated,
				PackageW:        op.TotalW(),
			}
			var mean float64
			for _, t := range temps[:s.net.Chiplets()] {
				mean += t
			}
			sample.MeanChipletK = mean / float64(s.net.Chiplets())
			sample.GBK = temps[s.net.GBNode()]
			sample.InterposerK = temps[s.net.InterposerNode()]
			return sample, fb.Err()
		}
	}
	return ThermalSample{}, fmt.Errorf("sim: thermal fixed point did not converge in %d iterations at u=%g", iters, offeredUtil)
}
