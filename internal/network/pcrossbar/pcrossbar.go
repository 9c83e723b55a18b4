// Package pcrossbar models POPSTAR (Thonnart et al., DATE 2020) as used in
// the paper's comparison: a package-level photonic crossbar between the GB
// and the chiplets (310 Gbps chiplet read, 100 Gbps chiplet write, 10
// wavelengths at 10 Gbps — Table II) with broadcast capability intentionally
// disabled, combined with Simba-style electrical meshes inside each chiplet
// (20 Gbps per PE).
//
// Cross-chiplet transfers pay one E/O + O/E conversion pair per *duplicated*
// datum (no broadcast), then electrical hops to the PE. Ring count grows
// superlinearly with node count (reader banks per listening peer), and bus
// insertion loss grows linearly with nodes passed, so laser power grows
// exponentially with scale — the scalability handicap Section VIII-F
// attributes to POPSTAR.
package pcrossbar

import (
	"fmt"
	"math"

	"spacx/internal/energy"
	"spacx/internal/network"
	"spacx/internal/photonic"
)

// Config holds the POPSTAR-style network parameters.
type Config struct {
	M int // chiplets
	N int // PEs per chiplet

	ChipletReadGbps  float64
	ChipletWriteGbps float64
	PEReadGbps       float64
	PEWriteGbps      float64

	WavelengthsPerBus int // 10 in Table II

	// GBBundles is how many crossbar buses the GB writes in parallel;
	// GB egress = GBBundles * ChipletReadGbps.
	GBBundles int

	Params photonic.Params

	ClockHz      float64
	RouterCycles int
	LinkDelaySec float64
	PacketBytes  int
	// Crossbar geometry for the loss budget.
	BusLengthCM float64
}

// Default32 is the Table II POPSTAR configuration at M=32, N=32 with
// moderate photonic parameters.
func Default32() Config {
	return Config{
		M: 32, N: 32,
		ChipletReadGbps: 310, ChipletWriteGbps: 100,
		PEReadGbps: 20, PEWriteGbps: 20,
		WavelengthsPerBus: 10,
		GBBundles:         4,
		Params:            photonic.Moderate(),
		ClockHz:           1e9,
		RouterCycles:      3,
		LinkDelaySec:      100e-12,
		PacketBytes:       64,
		BusLengthCM:       2.0,
	}
}

// Model implements network.Model for the photonic crossbar + electrical
// chiplet mesh combination.
type Model struct {
	cfg Config

	// Derived values frozen at construction: StaticPower, Fingerprint, the
	// per-bit energies, the chiplet-mesh hop average and the packet latency
	// are pure functions of the immutable config, and all sit on the
	// per-layer hot path of sim.RunLayer (the static power budget builds a
	// photonic PathBudget, the fingerprint formats the whole config, the hop
	// average factors the mesh). Each is the same float expression evaluated
	// once, so results stay bit-identical.
	static           network.StaticParts
	fingerprint      string
	eoPerBit         float64 // cfg.Params.EOEnergyPerBit()
	oePerBit         float64 // cfg.Params.OEEnergyPerBit()
	chipletHops      float64 // mean hops from a chiplet's interface to a PE
	packetLatencySec float64
}

// New validates and wraps a config.
func New(cfg Config) (*Model, error) {
	if cfg.M <= 0 || cfg.N <= 0 {
		return nil, fmt.Errorf("pcrossbar: M=%d N=%d must be positive", cfg.M, cfg.N)
	}
	if cfg.GBBundles <= 0 || cfg.WavelengthsPerBus <= 0 {
		return nil, fmt.Errorf("pcrossbar: bundles and wavelengths must be positive: %+v", cfg)
	}
	m := &Model{
		cfg:         cfg,
		fingerprint: fmt.Sprintf("pcrossbar%+v", cfg),
		eoPerBit:    cfg.Params.EOEnergyPerBit(),
		oePerBit:    cfg.Params.OEEnergyPerBit(),
		chipletHops: avgChipletHops(cfg.N),
	}
	m.static = m.staticPower()
	m.packetLatencySec = m.packetLatency()
	return m, nil
}

// MustNew wraps a config known to be valid.
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func (m *Model) Name() string { return "POPSTAR" }

// Caps: the paper's premise — prior photonic designs intentionally disable
// broadcast (Section II-A3 citing [25], [26], [30]).
func (m *Model) Caps() network.Caps { return network.Caps{} }

// Config returns the underlying configuration.
func (m *Model) Config() Config { return m.cfg }

// Fingerprint implements network.Fingerprinter: the config (photonic
// parameter set included) fully determines the model's behavior. The string
// is formatted once at construction.
func (m *Model) Fingerprint() string { return m.fingerprint }

const bitsPerByte = 8

func meshDims(n int) (rows, cols int) {
	rows = int(math.Sqrt(float64(n)))
	for n%rows != 0 {
		rows--
	}
	return rows, n / rows
}

func avgChipletHops(n int) float64 {
	r, c := meshDims(n)
	return float64(r)/2 + float64(c)/4 + 1
}

// TransferTime: GB egress over its crossbar bundles (duplicated bytes — no
// broadcast), then per-chiplet crossbar channel, then the chiplet mesh.
func (m *Model) TransferTime(f network.Flow) float64 {
	if f.UniqueBytes == 0 {
		return 0
	}
	// The counts with Flow.Normalize's defaults (below one means one),
	// read without copying the flow.
	span := max(f.ChipletSpan, 1)
	lanes := span * max(f.PESpan, 1)
	bytes := float64(f.UniqueBytes)
	dup := float64(max(f.DestPerDatum, 1))

	switch f.Dir {
	case network.GBToPE:
		gbEgress := float64(m.cfg.GBBundles) * m.cfg.ChipletReadGbps * 1e9 / bitsPerByte
		perChiplet := m.cfg.ChipletReadGbps * 1e9 / bitsPerByte
		perPE := m.cfg.PEReadGbps * 1e9 / bitsPerByte
		tGB := bytes * dup / gbEgress
		tChiplet := bytes * dup / (perChiplet * float64(span))
		tPE := bytes * dup / (perPE * float64(lanes))
		return math.Max(tGB, math.Max(tChiplet, tPE))

	case network.PEToGB:
		perChiplet := m.cfg.ChipletWriteGbps * 1e9 / bitsPerByte
		perPE := m.cfg.PEWriteGbps * 1e9 / bitsPerByte
		tChiplet := bytes / (perChiplet * float64(span))
		tPE := bytes / (perPE * float64(lanes))
		return math.Max(tChiplet, tPE)

	case network.PEToPE:
		perPE := m.cfg.PEWriteGbps * 1e9 / bitsPerByte
		return bytes / (perPE * float64(lanes))
	}
	return 0
}

// DynamicEnergy: each duplicated byte crossing the package pays one E/O and
// one O/E conversion, plus electrical chiplet-mesh hops to the PE. PE-to-PE
// psum traffic stays on the chiplet mesh.
func (m *Model) DynamicEnergy(f network.Flow) network.EnergyParts {
	bits := float64(f.UniqueBytes) * bitsPerByte * float64(max(f.DestPerDatum, 1))
	switch f.Dir {
	case network.GBToPE, network.PEToGB:
		return network.EnergyParts{
			EO:         bits * m.eoPerBit,
			OE:         bits * m.oePerBit,
			Electrical: bits * energy.ChipletWireEnergyPerBitHop * m.chipletHops,
		}
	case network.PEToPE:
		return network.EnergyParts{
			Electrical: bits * energy.ChipletWireEnergyPerBitHop,
		}
	}
	return network.EnergyParts{}
}

// RingCount is the crossbar MRR inventory: each node (M chiplets + GB)
// carries a modulator bank on its send channel and tunable reader banks on
// its receive path; the reader banks grow with the node count it must be
// able to listen to (one bank per 8 peers), which is what widens POPSTAR's
// heater bill as the system scales (Section VIII-F).
func (m *Model) RingCount() int {
	nodes := m.cfg.M + 1
	perBus := m.cfg.WavelengthsPerBus
	readerBanks := 1 + nodes/8
	return nodes*perBus + nodes*readerBanks*perBus/2
}

// StaticPower: heaters for the full ring inventory plus bus laser power from
// the loss budget (no splitting — unicast drops only). The parts are derived
// once at construction; this is a field read on the per-layer hot path.
func (m *Model) StaticPower() network.StaticParts { return m.static }

func (m *Model) staticPower() network.StaticParts {
	// Only standalone rings are charged statically (TX/RX ring heaters are
	// folded into the per-bit conversion energy, as for SPACX): the idle
	// reader banks waiting on inactive channels.
	idleReaders := (m.cfg.M + 1) * m.cfg.WavelengthsPerBus
	heat := float64(idleReaders) * m.cfg.Params.RingHeating.Watts()

	nodes := m.cfg.M + 1
	budget := photonic.NewPathBudget(m.cfg.Params).
		Waveguide(m.cfg.BusLengthCM).
		Bends(2).
		// Worst case passes every other writer's modulator bank.
		ThroughRings((nodes - 1) * m.cfg.WavelengthsPerBus).
		Drop()
	perChannelMw := float64(budget.LaserPower())
	channels := nodes * m.cfg.WavelengthsPerBus
	laser := float64(channels)*perChannelMw/1000 +
		float64(nodes)*float64(m.cfg.Params.LaserOverheadPerWaveguide)/1000
	return network.StaticParts{Laser: laser, Heating: heat}
}

// PacketLatency: one crossbar traversal (E/O + flight + O/E) plus the
// chiplet mesh hops and PE-level serialization. It does not depend on the
// flow; New computes it once.
func (m *Model) PacketLatency(network.Flow) float64 { return m.packetLatencySec }

func (m *Model) packetLatency() float64 {
	const conversion = 100e-12
	flight := m.cfg.BusLengthCM / (3e10 / 4)
	crossbar := 2*conversion + flight +
		float64(m.cfg.PacketBytes)/(m.cfg.ChipletReadGbps*1e9/bitsPerByte)
	perHop := float64(m.cfg.RouterCycles)/m.cfg.ClockHz + m.cfg.LinkDelaySec
	mesh := m.chipletHops*perHop +
		float64(m.cfg.PacketBytes)/(m.cfg.PEReadGbps*1e9/bitsPerByte)
	return crossbar + mesh
}

var _ network.Model = (*Model)(nil)
