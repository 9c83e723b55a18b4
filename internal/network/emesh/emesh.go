// Package emesh models Simba's all-electrical interconnect (Table II):
// a package-level 2D mesh connecting the GB die and the chiplets over
// ground-referenced-signaling links (320 Gbps per chiplet), and a
// chiplet-level 2D mesh connecting PEs (20 Gbps per PE). Broadcast is not
// supported natively: a datum needed by d destinations is emulated by d
// unicasts (Section II-B3), which multiplies both serialization time at the
// GB side and link energy.
package emesh

import (
	"fmt"
	"math"

	"spacx/internal/energy"
	"spacx/internal/network"
)

// Config holds the Simba network parameters.
type Config struct {
	M int // chiplets
	N int // PEs per chiplet

	ChipletReadGbps  float64 // package-level per-chiplet bandwidth
	ChipletWriteGbps float64
	PEReadGbps       float64 // chiplet-level per-PE bandwidth
	PEWriteGbps      float64

	// GBPorts is how many package-mesh links the GB die injects on; GB
	// egress = GBPorts * ChipletReadGbps. This is the GB-side contention
	// point that broadcast emulation stresses.
	GBPorts int

	ClockHz      float64 // mesh router clock
	RouterCycles int     // pipeline depth per hop
	LinkDelaySec float64 // per-hop wire delay
	PacketBytes  int
}

// Default32 is the Table II Simba configuration at M=32, N=32.
func Default32() Config {
	return Config{
		M: 32, N: 32,
		ChipletReadGbps: 320, ChipletWriteGbps: 320,
		PEReadGbps: 20, PEWriteGbps: 20,
		GBPorts:      2,
		ClockHz:      1e9,
		RouterCycles: 3,
		LinkDelaySec: 100e-12,
		PacketBytes:  64,
	}
}

// Model implements network.Model for the electrical mesh.
type Model struct {
	cfg Config
	// Derived values frozen at construction: the fingerprint (read for every
	// cache key of spacx-serve and every batch cohort), the hop averages and
	// the packet latency (on the per-layer hot path of sim.RunLayer). Each
	// is the same float expression evaluated once, so results stay
	// bit-identical.
	fingerprint      string
	packageHops      float64 // mean hops from the GB to a chiplet
	chipletHops      float64 // mean hops from a chiplet's interface to a PE
	packetLatencySec float64
}

// New validates and wraps a config.
func New(cfg Config) (*Model, error) {
	if cfg.M <= 0 || cfg.N <= 0 {
		return nil, fmt.Errorf("emesh: M=%d N=%d must be positive", cfg.M, cfg.N)
	}
	if cfg.GBPorts <= 0 || cfg.ChipletReadGbps <= 0 || cfg.PEReadGbps <= 0 {
		return nil, fmt.Errorf("emesh: bandwidths and GB ports must be positive: %+v", cfg)
	}
	m := &Model{
		cfg:         cfg,
		fingerprint: fmt.Sprintf("emesh%+v", cfg),
		packageHops: avgPackageHops(cfg.M),
		chipletHops: avgChipletHops(cfg.N),
	}
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

func (m *Model) Name() string { return "Simba" }

// Caps: no native broadcast at either level.
func (m *Model) Caps() network.Caps { return network.Caps{} }

// Config returns the underlying configuration.
func (m *Model) Config() Config { return m.cfg }

// Fingerprint implements network.Fingerprinter: the flat config struct is
// the complete behavioral description of the mesh. The string is formatted
// once at construction.
func (m *Model) Fingerprint() string { return m.fingerprint }

// meshDims returns the near-square factorization used for hop counting.
func meshDims(n int) (rows, cols int) {
	rows = int(math.Sqrt(float64(n)))
	for n%rows != 0 {
		rows--
	}
	return rows, n / rows
}

// avgPackageHops is the mean Manhattan distance from the GB (attached at an
// edge-center port of the package mesh) to a chiplet.
func avgPackageHops(m int) float64 {
	r, c := meshDims(m)
	// Edge-center attachment: average row distance r/2, column distance c/4.
	return float64(r)/2 + float64(c)/4 + 1
}

// avgChipletHops is the mean hop count from a chiplet's interface to a PE on
// its internal mesh.
func avgChipletHops(n int) float64 {
	r, c := meshDims(n)
	return float64(r)/2 + float64(c)/4 + 1
}

const bitsPerByte = 8

// TransferTime accounts for broadcast-by-unicast: every datum is serialized
// once per destination at the GB side, then the per-chiplet and per-PE links
// bound the parallel delivery.
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
		gbEgress := float64(m.cfg.GBPorts) * m.cfg.ChipletReadGbps * 1e9 / bitsPerByte
		perChiplet := m.cfg.ChipletReadGbps * 1e9 / bitsPerByte
		perPE := m.cfg.PEReadGbps * 1e9 / bitsPerByte

		tGB := bytes * dup / gbEgress
		tChiplet := bytes * dup / (perChiplet * float64(span))
		tPE := bytes * dup / (perPE * float64(lanes))
		return math.Max(tGB, math.Max(tChiplet, tPE))

	case network.PEToGB:
		gbIngress := float64(m.cfg.GBPorts) * m.cfg.ChipletWriteGbps * 1e9 / bitsPerByte
		perChiplet := m.cfg.ChipletWriteGbps * 1e9 / bitsPerByte
		perPE := m.cfg.PEWriteGbps * 1e9 / bitsPerByte
		tGB := bytes / gbIngress
		tChiplet := bytes / (perChiplet * float64(span))
		tPE := bytes / (perPE * float64(lanes))
		return math.Max(tGB, math.Max(tChiplet, tPE))

	case network.PEToPE:
		// Neighbor exchange on the chiplet meshes, fully parallel across
		// chiplets; bounded by per-PE link bandwidth.
		perPE := m.cfg.PEWriteGbps * 1e9 / bitsPerByte
		return bytes / (perPE * float64(lanes))
	}
	return 0
}

// DynamicEnergy charges the package link + routers for every hop of every
// duplicated byte, and the chiplet-level wires likewise.
func (m *Model) DynamicEnergy(f network.Flow) network.EnergyParts {
	bits := float64(f.UniqueBytes) * bitsPerByte * float64(max(f.DestPerDatum, 1))
	var e float64
	switch f.Dir {
	case network.GBToPE, network.PEToGB:
		e = bits * (energy.PackageLinkEnergyPerBit +
			energy.RouterEnergyPerBitHop*m.packageHops)
		e += bits * energy.ChipletWireEnergyPerBitHop * m.chipletHops
	case network.PEToPE:
		// One-hop neighbor traffic on the chiplet mesh.
		e = bits * energy.ChipletWireEnergyPerBitHop
	}
	return network.EnergyParts{Electrical: e}
}

// StaticPower: all-electrical networks idle at (approximately) zero in this
// model; leakage is folded into the per-bit numbers as in DSENT runs.
func (m *Model) StaticPower() network.StaticParts { return network.StaticParts{} }

// PacketLatency: per-hop router pipeline plus wire delay across both mesh
// levels, plus serialization at the narrowest (PE-level) link. It does not
// depend on the flow; New computes it once.
func (m *Model) PacketLatency(network.Flow) float64 { return m.packetLatencySec }

func (m *Model) packetLatency() float64 {
	hops := m.packageHops + m.chipletHops
	perHop := float64(m.cfg.RouterCycles)/m.cfg.ClockHz + m.cfg.LinkDelaySec
	serialize := float64(m.cfg.PacketBytes) / (m.cfg.PEReadGbps * 1e9 / bitsPerByte)
	return hops*perHop + serialize
}

var _ network.Model = (*Model)(nil)
