// Package thermal is the coarse thermal co-simulation layer of the SPACX
// reproduction: a lumped RC thermal network derived from the interposer
// floorplan (internal/floorplan), a power-map adapter that turns an
// accelerator operating point into node heat sources, and a feedback coupler
// that maps node temperatures back into per-ring tuning excursions, heater
// power, and loss-budget margin.
//
// The paper treats die temperature as a static spec: photonic.TuningSpec
// carries a fixed TemperatureSpreadK and every figure assumes the rings sit
// at their calibration point. In a real deployment sustained traffic heats
// the interposer, detunes the rings, raises tuning power — which is itself
// heat — and erodes the optical loss budget in a feedback loop. Following
// CHIPSIM's co-simulation framing (PAPERS.md), this package provides the
// physics half of that loop; internal/sim closes it against the analytical
// simulator and internal/exp replays traffic profiles through it.
//
// Topology. One node per chiplet tile, one for the GB die, one lumped
// interposer node (carrier plus heat spreader and sink mass), and one
// fixed-temperature ambient boundary. Chiplets and the GB couple vertically
// into the interposer through their bump/TIM resistance; chiplets whose
// floorplan positions are adjacent (one pitch apart) couple laterally; the
// interposer couples to ambient through the sink resistance. The network is
// deliberately coarse — the point is the feedback dynamics, not hotspot
// prediction.
package thermal

import (
	"fmt"
	"math"

	"spacx/internal/floorplan"
)

// NodeKind labels a node of the RC network.
type NodeKind int

const (
	Chiplet NodeKind = iota
	GB
	Interposer
	Ambient
)

func (k NodeKind) String() string {
	switch k {
	case Chiplet:
		return "chiplet"
	case GB:
		return "gb"
	case Interposer:
		return "interposer"
	case Ambient:
		return "ambient"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Config holds the lumped RC constants. Defaults are deliberately
// passive-cooling coarse values: the interposer-to-ambient resistance is the
// knob that decides how hard sustained load pushes the dies above ambient.
type Config struct {
	// AmbientK is the fixed boundary temperature (and the initial condition
	// of every node).
	AmbientK float64

	// ChipletToInterposerKPerW is the vertical bump/TIM resistance of one
	// chiplet tile into the interposer.
	ChipletToInterposerKPerW float64
	// GBToInterposerKPerW is the same for the GB die.
	GBToInterposerKPerW float64
	// LateralKPerW couples floorplan-adjacent chiplet tiles (one pitch
	// apart); 0 disables lateral spreading.
	LateralKPerW float64
	// InterposerToAmbientKPerW is the sink resistance: total package power
	// times this is the steady-state interposer rise over ambient.
	InterposerToAmbientKPerW float64

	// Thermal capacitances (J/K) of the lumped nodes.
	ChipletCapJPerK    float64
	GBCapJPerK         float64
	InterposerCapJPerK float64
}

// DefaultConfig returns the evaluation package's thermal constants: a 4 mm²
// silicon chiplet with its share of underfill (~0.15 J/K) behind ~2 K/W of
// bump/TIM resistance, a passive interposer/spreader stack (~60 J/K, tau of
// half a minute) behind 0.5 K/W to a 45 °C ambient.
func DefaultConfig() Config {
	return Config{
		AmbientK:                 318.15, // 45 C server inlet worst case
		ChipletToInterposerKPerW: 2.0,
		GBToInterposerKPerW:      1.0,
		LateralKPerW:             8.0,
		InterposerToAmbientKPerW: 0.5,
		ChipletCapJPerK:          0.15,
		GBCapJPerK:               0.30,
		InterposerCapJPerK:       60.0,
	}
}

// Validate rejects non-physical configs.
func (c Config) Validate() error {
	if c.AmbientK <= 0 {
		return fmt.Errorf("thermal: ambient must be positive kelvin, got %g", c.AmbientK)
	}
	if c.ChipletToInterposerKPerW <= 0 || c.GBToInterposerKPerW <= 0 || c.InterposerToAmbientKPerW <= 0 {
		return fmt.Errorf("thermal: vertical/sink resistances must be positive: %+v", c)
	}
	if c.LateralKPerW < 0 {
		return fmt.Errorf("thermal: lateral resistance must be >= 0, got %g", c.LateralKPerW)
	}
	if c.ChipletCapJPerK <= 0 || c.GBCapJPerK <= 0 || c.InterposerCapJPerK <= 0 {
		return fmt.Errorf("thermal: capacitances must be positive: %+v", c)
	}
	return nil
}

// link is one thermal conductance between two nodes.
type link struct {
	a, b int
	g    float64 // W/K
}

// Network is the lumped RC model. Node order is fixed and load-bearing for
// every consumer: chiplets 0..M-1 in floorplan order, then GB, interposer,
// ambient.
type Network struct {
	cfg   Config
	kinds []NodeKind
	caps  []float64 // J/K; ambient has none (fixed boundary)
	temps []float64 // K
	links []link
	gSum  []float64 // per-node total conductance, for the stability bound

	m          int // chiplet count
	gb         int // node indices
	interposer int
	ambient    int

	ambientJ float64   // cumulative heat delivered to the ambient boundary
	inputJ   float64   // cumulative source heat injected
	flux     []float64 // Euler scratch, lazily allocated once

	// The exact integrator (rc.go), factored once by NewNetwork over the
	// free nodes 0..ambient-1. Matrices are row-major, free×free.
	sqrtC  []float64 // C^½ per free node
	toAmb  []float64 // conductance from each free node straight to ambient
	lambda []float64 // eigenvalues of S = C^−½·G·C^−½
	q      []float64 // eigenvectors of S, row k for lambda[k]
	gInv   []float64 // G⁻¹
	// Φ and the boundary-heat row for steps of phiDt seconds (see setStep).
	phiDt  float64
	phi    []float64
	ambRow []float64
	tInf   []float64 // Advance scratch: θ∞
	dev    []float64 // Advance scratch: θ − θ∞
}

// NewNetwork builds the RC network for a floorplan under the given config.
// Every node starts at ambient temperature.
func NewNetwork(plan *floorplan.Plan, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if plan == nil || len(plan.Positions) == 0 {
		return nil, fmt.Errorf("thermal: floorplan has no chiplet positions")
	}
	m := len(plan.Positions)
	n := &Network{
		cfg:        cfg,
		m:          m,
		gb:         m,
		interposer: m + 1,
		ambient:    m + 2,
	}
	total := m + 3
	n.kinds = make([]NodeKind, total)
	n.caps = make([]float64, total)
	n.temps = make([]float64, total)
	for i := 0; i < m; i++ {
		n.kinds[i] = Chiplet
		n.caps[i] = cfg.ChipletCapJPerK
	}
	n.kinds[n.gb], n.caps[n.gb] = GB, cfg.GBCapJPerK
	n.kinds[n.interposer], n.caps[n.interposer] = Interposer, cfg.InterposerCapJPerK
	n.kinds[n.ambient] = Ambient // capacitance deliberately zero: fixed boundary
	for i := range n.temps {
		n.temps[i] = cfg.AmbientK
	}

	// Vertical links: every die into the interposer, interposer to ambient.
	for i := 0; i < m; i++ {
		n.links = append(n.links, link{i, n.interposer, 1 / cfg.ChipletToInterposerKPerW})
	}
	n.links = append(n.links,
		link{n.gb, n.interposer, 1 / cfg.GBToInterposerKPerW},
		link{n.interposer, n.ambient, 1 / cfg.InterposerToAmbientKPerW},
	)

	// Lateral links between floorplan-adjacent chiplets (Manhattan distance
	// of one pitch, with a little slack for float noise).
	if cfg.LateralKPerW > 0 {
		adj := plan.PitchMM * 1.01
		g := 1 / cfg.LateralKPerW
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				dx := math.Abs(plan.Positions[i][0] - plan.Positions[j][0])
				dy := math.Abs(plan.Positions[i][1] - plan.Positions[j][1])
				if dx+dy <= adj {
					n.links = append(n.links, link{i, j, g})
				}
			}
		}
	}

	n.gSum = make([]float64, total)
	for _, l := range n.links {
		n.gSum[l.a] += l.g
		n.gSum[l.b] += l.g
	}
	if err := n.factor(); err != nil {
		return nil, err
	}
	return n, nil
}

// Nodes reports the node count (chiplets + GB + interposer + ambient).
func (n *Network) Nodes() int { return len(n.temps) }

// Chiplets reports the chiplet node count; chiplet node indices are
// 0..Chiplets()-1 in floorplan order.
func (n *Network) Chiplets() int { return n.m }

// GBNode, InterposerNode, AmbientNode return the special node indices.
func (n *Network) GBNode() int         { return n.gb }
func (n *Network) InterposerNode() int { return n.interposer }
func (n *Network) AmbientNode() int    { return n.ambient }

// Kind reports a node's kind.
func (n *Network) Kind(i int) NodeKind { return n.kinds[i] }

// Temps returns a copy of the current node temperatures in kelvin.
func (n *Network) Temps() []float64 {
	out := make([]float64, len(n.temps))
	copy(out, n.temps)
	return out
}

// Temp returns one node's current temperature.
func (n *Network) Temp(i int) float64 { return n.temps[i] }

// MaxChipletK returns the hottest chiplet temperature — the excursion the
// feedback coupler keys on (rings on the hottest die detune first).
func (n *Network) MaxChipletK() float64 {
	max := n.temps[0]
	for _, t := range n.temps[1:n.m] {
		if t > max {
			max = t
		}
	}
	return max
}

// MeanChipletK returns the mean chiplet temperature.
func (n *Network) MeanChipletK() float64 {
	var s float64
	for _, t := range n.temps[:n.m] {
		s += t
	}
	return s / float64(n.m)
}

// Reset returns every node to ambient and zeroes the energy accounting.
func (n *Network) Reset() {
	for i := range n.temps {
		n.temps[i] = n.cfg.AmbientK
	}
	n.ambientJ, n.inputJ = 0, 0
}
