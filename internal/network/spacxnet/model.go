package spacxnet

import (
	"fmt"

	"spacx/internal/network"
	"spacx/internal/photonic"
)

// Model adapts a Config to the network.Model interface used by the
// simulator. All rates follow Table II: 10 Gbps per wavelength, per-PE read
// 20 Gbps (its cross-chiplet wavelength plus its share of a single-chiplet
// broadcast), per-chiplet write 10 Gbps per local waveguide (token ring).
type Model struct {
	cfg Config

	// Derived values frozen at construction. StaticPower, Fingerprint, the
	// per-bit conversion energies and the packet latency sit on the
	// per-layer hot path of sim.RunLayer, and all are pure functions of the
	// immutable config; computing the photonic power budget (and formatting
	// the fingerprint) once here instead of per call removes the dominant
	// allocation source of the analytical simulator. Each value is the same
	// float expression evaluated once, so results stay bit-identical.
	static           network.StaticParts
	fingerprint      string
	eoPerBit         float64 // cfg.Params.EOEnergyPerBit()
	oePerBit         float64 // cfg.Params.OEEnergyPerBit()
	packetLatencySec float64
}

// NewModel wraps a validated config.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := cfg.Power()
	return &Model{
		cfg:              cfg,
		static:           network.StaticParts{Laser: p.LaserW, Heating: p.InterfaceHtW},
		fingerprint:      fmt.Sprintf("spacxnet%+v", cfg),
		eoPerBit:         cfg.Params.EOEnergyPerBit(),
		oePerBit:         cfg.Params.OEEnergyPerBit(),
		packetLatencySec: packetLatency(cfg),
	}, nil
}

// MustModel wraps a config known to be valid (panics otherwise); intended
// for package presets and tests.
func MustModel(cfg Config) *Model {
	m, err := NewModel(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the underlying configuration.
func (m *Model) Config() Config { return m.cfg }

// Fingerprint implements network.Fingerprinter: the config (geometry and
// photonic parameter set included) fully determines the model's behavior.
// The string is formatted once at construction.
func (m *Model) Fingerprint() string { return m.fingerprint }

func (m *Model) Name() string { return "SPACX" }

// Caps: the whole point of the design (Section III-D).
func (m *Model) Caps() network.Caps {
	return network.Caps{CrossChipletBroadcast: true, SingleChipletBroadcast: true}
}

// bytesPerSecPerWavelength is the 10 Gbps line rate in bytes/s.
const bytesPerSecPerWavelength = photonic.WavelengthGbps * 1e9 / 8

// TransferTime serializes the flow's unique payload over its parallel
// wavelength streams. Broadcast means one transmission serves every
// destination, so DestPerDatum does not multiply time — only energy.
// PE-to-PE traffic has no direct path in the SPACX network: it is relayed
// through the GB (PE -> GB on the return wavelength, GB -> PE on a forward
// wavelength), doubling its serialization.
func (m *Model) TransferTime(f network.Flow) float64 {
	if f.UniqueBytes == 0 {
		return 0
	}
	// Counts below one mean one (Flow.Normalize); reading them directly
	// spares copying the flow.
	perStream := float64(f.UniqueBytes) / float64(max(f.Streams, 1))
	t := perStream / bytesPerSecPerWavelength
	if f.Dir == network.PEToPE {
		t *= 2
	}
	return t
}

// DynamicEnergy: one E/O per transmitted byte per waveguide copy (TxCopies),
// one O/E per receiving endpoint (DestPerDatum). This is the broadcast
// asymmetry the paper exploits: a 32-way broadcast pays one modulation and
// 32 detections, where a unicast network would pay 32 of each. PE-to-PE
// relays through the GB and pays the conversion pair twice.
func (m *Model) DynamicEnergy(f network.Flow) network.EnergyParts {
	bits := float64(f.UniqueBytes) * 8
	hops := 1.0
	if f.Dir == network.PEToPE {
		hops = 2
	}
	return network.EnergyParts{
		EO: bits * float64(max(f.TxCopies, 1)) * hops * m.eoPerBit,
		OE: bits * float64(max(f.DestPerDatum, 1)) * hops * m.oePerBit,
	}
}

// StaticPower reports laser plus heater power. Transceiver *circuit* power
// (including the TX/RX ring heaters' share) is charged per bit as dynamic
// E/O / O/E energy, so only the standalone interface splitter/filter heaters
// belong here.
// The parts are derived from the loss budget once at construction (the
// config is immutable), so this is a field read on the per-layer hot path.
func (m *Model) StaticPower() network.StaticParts { return m.static }

// speedOfLightWaveguideCMPerSec is light speed in silicon waveguide
// (group index ~4).
const speedOfLightWaveguideCMPerSec = 3e10 / 4

// PacketLatency: E/O conversion, time of flight along global+local
// waveguide, O/E conversion, and serialization of one 64-byte packet at the
// wavelength line rate. One hop regardless of placement — the property the
// paper leans on ("one-hop data communication from the GB to arbitrary
// PEs"). It does not depend on the flow; NewModel computes it once.
func (m *Model) PacketLatency(network.Flow) float64 { return m.packetLatencySec }

func packetLatency(cfg Config) float64 {
	const packetBytes = 64
	const conversion = 100e-12 // E/O or O/E latency, ~100 ps each
	flight := (cfg.globalWaveguideCM() + cfg.localWaveguideCM()) /
		speedOfLightWaveguideCMPerSec
	serialize := packetBytes / bytesPerSecPerWavelength
	return 2*conversion + flight + serialize
}

// Bandwidth summary accessors used by Table II reporting and the mapper.

// PEReadGbps is the aggregate read bandwidth one PE sees: its dedicated
// cross-chiplet wavelength plus the single-chiplet broadcast it shares.
func (m *Model) PEReadGbps() float64 { return 2 * photonic.WavelengthGbps }

// PEWriteGbps is the shared token-ring write wavelength.
func (m *Model) PEWriteGbps() float64 { return photonic.WavelengthGbps }

// ChipletReadGbps: N cross-chiplet streams (one per PE) plus one
// single-chiplet broadcast per local waveguide.
func (m *Model) ChipletReadGbps() float64 {
	return float64(m.cfg.N)*photonic.WavelengthGbps +
		float64(m.cfg.SingleGroupsPerChiplet())*photonic.WavelengthGbps
}

// ChipletWriteGbps: one return wavelength per local waveguide.
func (m *Model) ChipletWriteGbps() float64 {
	return float64(m.cfg.SingleGroupsPerChiplet()) * photonic.WavelengthGbps
}

var _ network.Model = (*Model)(nil)
