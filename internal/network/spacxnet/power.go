package spacxnet

import (
	"fmt"

	"spacx/internal/photonic"
)

// PowerBreakdown decomposes the always-on photonic network power (watts)
// into the categories of Figures 19 and 20.
type PowerBreakdown struct {
	LaserW       float64
	TxCircuitW   float64 // transmitter circuitry incl. its heater share
	RxCircuitW   float64 // receiver circuitry incl. its heater share
	InterfaceHtW float64 // standalone heaters of interface splitters/filters
}

// TransceiverW is the Figure 19(c)/20(c) quantity: MRRs and associated
// heaters (everything except the laser).
func (p PowerBreakdown) TransceiverW() float64 {
	return p.TxCircuitW + p.RxCircuitW + p.InterfaceHtW
}

// OverallW is the Figure 19(a)/20(a) quantity.
func (p PowerBreakdown) OverallW() float64 { return p.LaserW + p.TransceiverW() }

// globalWaveguideCM is the worst-case propagation length of one global
// waveguide: the GB lead-in plus the span of its GEF chiplets.
func (c Config) globalWaveguideCM() float64 {
	return c.GBToInterposerCM + float64(c.GEF)*c.ChipletPitchCM
}

// localWaveguideCM is the on-chiplet span serving GK PEs.
func (c Config) localWaveguideCM() float64 {
	return float64(c.GK) * c.LocalPerPECM
}

// crossChannelBudget is the worst-case insertion-loss path of one
// cross-chiplet (group X) wavelength: from the GB modulator along the global
// waveguide, split GEF ways across the group's chiplets by the interface
// tunable splitters, onto a local waveguide, and finally dropped at the last
// PE's filter (receiver 1 in Figure 7).
//
// Pass-by rings near the wavelength (one per interface splitter chain and
// one per PE receiver along the path) are charged at ring-through loss;
// the splitter's excess insertion loss is paid once on the drop path.
// Insertion loss therefore grows linearly with both granularities —
// Section VIII-E1's "linear increase in insertion loss, hence exponential
// increase in laser power".
func (c Config) crossChannelBudget() *photonic.PathBudget {
	through := c.GEF + (c.GK - 1)
	return photonic.NewPathBudget(c.Params).
		Waveguide(c.globalWaveguideCM() + c.localWaveguideCM()).
		Bends(c.WaveguideBends).
		Crossovers(c.WaveguideCrossings).
		ThroughRings(through).
		Split(c.GEF).
		Drop()
}

// singleChannelBudget is the worst-case path of one single-chiplet (group Y)
// wavelength: global waveguide to its target chiplet's interface filter
// (a full drop), onto the local waveguide, split GK ways across the group's
// PEs (receiver 0 tunable splitters).
func (c Config) singleChannelBudget() *photonic.PathBudget {
	through := (c.GEF - 1) + (c.GK - 1)
	return photonic.NewPathBudget(c.Params).
		Waveguide(c.globalWaveguideCM() + c.localWaveguideCM()).
		Bends(c.WaveguideBends).
		Crossovers(c.WaveguideCrossings).
		ThroughRings(through).
		IntermediateDrops(1). // interface filter onto the local waveguide
		Split(c.GK).
		Drop()
}

// returnChannelBudget is the PE-to-GB unicast path: the PE modulator reuses
// the single-chiplet wavelength (time-multiplexed, Section III-E), so this
// budget exists for link-margin verification only — it adds no laser
// channels of its own.
func (c Config) returnChannelBudget() *photonic.PathBudget {
	through := (c.GK - 1) + (c.GEF - 1)
	return photonic.NewPathBudget(c.Params).
		Waveguide(c.globalWaveguideCM() + c.localWaveguideCM()).
		Bends(c.WaveguideBends).
		Crossovers(c.WaveguideCrossings).
		ThroughRings(through).
		IntermediateDrops(1). // interface filter back onto the global waveguide
		Drop()
}

// Power computes the full static power breakdown of the network.
//
// Laser: per global waveguide, its GK cross-chiplet channels plus its GEF
// single-chiplet channels (the PE-to-GB return time-multiplexes the latter),
// plus a fixed per-waveguide source overhead. Coarse granularity pays
// linearly growing insertion loss (exponential mW); very fine granularity
// pays waveguide duplication (more source overheads and more per-channel
// floors) — laser power bottoms out at fine-but-not-minimal granularity.
//
// Transceiver: GB modulators (one per wavelength per waveguide) and return
// receivers shrink with coarser granularity, as do interface ring heaters —
// transceiver power bottoms out at the coarsest granularity.
func (c Config) Power() PowerBreakdown {
	var p PowerBreakdown

	crossMw := float64(c.crossChannelBudget().LaserPower())
	singleMw := float64(c.singleChannelBudget().LaserPower())

	wg := float64(c.GlobalWaveguides())
	perWaveguideMw := float64(c.GK)*crossMw + float64(c.GEF)*singleMw +
		float64(c.Params.LaserOverheadPerWaveguide)
	p.LaserW = wg * perWaveguideMw / 1000

	// Transmitters: GB modulators (one per wavelength per waveguide) plus
	// one per PE, plus the per-waveguide serializer/clocking driver.
	// Receivers: two per PE plus the GB return receivers.
	nTx := c.GBTransmitters() + c.M*c.N
	nRx := 2*c.M*c.N + c.GBReceivers()
	p.TxCircuitW = float64(nTx)*c.Params.TxPower.Watts() +
		wg*c.WaveguideDriverMw/1000
	p.RxCircuitW = float64(nRx) * c.Params.RxPower.Watts()

	// Standalone heaters: interface splitters and filters.
	p.InterfaceHtW = float64(c.InterfaceMRRs()) * c.Params.RingHeating.Watts()
	return p
}

// CrossChannelBudget exposes the worst-case cross-chiplet channel loss
// budget for reporting.
func (c Config) CrossChannelBudget() *photonic.PathBudget { return c.crossChannelBudget() }

// SingleChannelBudget exposes the worst-case single-chiplet channel loss
// budget for reporting.
func (c Config) SingleChannelBudget() *photonic.PathBudget { return c.singleChannelBudget() }

// PowerPoint is one granularity sample of the Figure 19/20 sweep.
type PowerPoint struct {
	GK, GEF int
	PowerBreakdown
}

// PowerSurface evaluates the Figure 19/20 sweep: every power-of-two
// (gK, gEF) granularity pair dividing (N, M), in row-major gK order.
func PowerSurface(m, n int, params photonic.Params) ([]PowerPoint, error) {
	if m <= 0 || n <= 0 {
		return nil, fmt.Errorf("spacxnet: power surface needs positive M, N; got %d, %d", m, n)
	}
	var pts []PowerPoint
	for _, g := range GranularityGrid(m, n) {
		c, err := New(m, n, g[1], g[0], params)
		if err != nil {
			return nil, err
		}
		pts = append(pts, PowerPoint{GK: g[0], GEF: g[1], PowerBreakdown: c.Power()})
	}
	return pts, nil
}

// GranularityGrid enumerates the sweep points of PowerSurface: every
// power-of-two (gK, gEF) pair dividing (N, M), in row-major gK order. Sweep
// engines fan the points out and rely on this order for deterministic
// output. The grid is empty when m or n is non-positive.
func GranularityGrid(m, n int) [][2]int {
	var grid [][2]int
	for gk := 1; gk <= n; gk *= 2 {
		if n%gk != 0 {
			continue
		}
		for gef := 1; gef <= m; gef *= 2 {
			if m%gef != 0 {
				continue
			}
			grid = append(grid, [2]int{gk, gef})
		}
	}
	return grid
}
