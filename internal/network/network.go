// Package network defines the abstraction shared by the three interconnect
// models of the evaluation (Section VII, Table II): the SPACX hierarchical
// photonic network, Simba's electrical meshes, and POPSTAR's photonic
// crossbar. Dataflow mappers emit Flows; network models turn Flows into
// transfer times, per-packet latencies, and energy.
package network

import "fmt"

// Class labels the data type a flow carries (Section II-B: weights and input
// features are read-only inputs, psums are intermediate, output features are
// outputs).
type Class int

const (
	Weights Class = iota
	Ifmaps
	Outputs
	Psums

	// NumClasses counts the traffic classes above; dense per-class tables
	// ([NumClasses]int64 and friends) index by Class directly.
	NumClasses = iota
)

func (c Class) String() string {
	switch c {
	case Weights:
		return "weights"
	case Ifmaps:
		return "ifmaps"
	case Outputs:
		return "outputs"
	case Psums:
		return "psums"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Direction of a flow.
type Direction int

const (
	GBToPE Direction = iota
	PEToGB
	PEToPE // spatial psum reduction in the WS dataflow
)

func (d Direction) String() string {
	switch d {
	case GBToPE:
		return "gb->pe"
	case PEToGB:
		return "pe->gb"
	case PEToPE:
		return "pe->pe"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Flow is one logical transfer pattern of a layer execution, produced by a
// dataflow mapping. It is network-independent: the same flow submitted to a
// broadcast-capable photonic network and to an electrical mesh yields very
// different times and energies (the mesh must emulate broadcast by unicast).
type Flow struct {
	Class Class
	Dir   Direction

	// UniqueBytes is the unique payload: each datum counted once no matter
	// how many endpoints consume it.
	UniqueBytes int64

	// Streams is how many independent parallel channel streams the mapping
	// spreads the unique payload across (e.g. one cross-chiplet wavelength
	// per active PE position in SPACX). Serialization time divides by it.
	Streams int

	// DestPerDatum is how many endpoint PEs consume each datum (the
	// broadcast width). Broadcast-capable links pay one transmission and
	// DestPerDatum receptions; unicast-only links pay DestPerDatum
	// transmissions end to end.
	DestPerDatum int

	// TxCopies is how many times each unique byte must be modulated at the
	// source — greater than one when the same data is duplicated onto
	// several physical waveguides (e.g. the same weight stream feeding
	// every single-chiplet group's waveguide in SPACX). Copies transmit in
	// parallel, so they cost transmitter energy but not time. Electrical
	// networks ignore this field (their duplication is DestPerDatum).
	TxCopies int

	// ChipletSpan is how many chiplets the destinations of one datum span;
	// PESpan is how many PEs per chiplet. Used for hop-count and waveguide
	// duplication accounting. ChipletSpan*PESpan >= DestPerDatum is not
	// required (a datum may go to one PE on each of ChipletSpan chiplets).
	ChipletSpan int
	PESpan      int
}

// Normalize fills defaulted fields so models can assume sane values.
func (f Flow) Normalize() Flow {
	if f.Streams < 1 {
		f.Streams = 1
	}
	if f.DestPerDatum < 1 {
		f.DestPerDatum = 1
	}
	if f.TxCopies < 1 {
		f.TxCopies = 1
	}
	if f.ChipletSpan < 1 {
		f.ChipletSpan = 1
	}
	if f.PESpan < 1 {
		f.PESpan = 1
	}
	return f
}

// Validate rejects nonsensical flows.
func (f Flow) Validate() error {
	if f.UniqueBytes < 0 {
		return fmt.Errorf("network: negative UniqueBytes %d", f.UniqueBytes)
	}
	if f.Streams < 0 || f.DestPerDatum < 0 || f.ChipletSpan < 0 || f.PESpan < 0 || f.TxCopies < 0 {
		return fmt.Errorf("network: negative flow field: %+v", f)
	}
	return nil
}

// EnergyParts decomposes a flow's dynamic network energy (joules), matching
// the categories of Figure 21(b).
type EnergyParts struct {
	EO         float64 // electrical-to-optical conversion (transmitters)
	OE         float64 // optical-to-electrical conversion (receivers)
	Electrical float64 // electrical link + router traversal
}

// Total sums the parts.
func (p EnergyParts) Total() float64 { return p.EO + p.OE + p.Electrical }

// Add accumulates.
func (p EnergyParts) Add(q EnergyParts) EnergyParts {
	return EnergyParts{p.EO + q.EO, p.OE + q.OE, p.Electrical + q.Electrical}
}

// StaticParts decomposes always-on network power (watts).
type StaticParts struct {
	Laser   float64
	Heating float64
}

// Total sums the parts.
func (p StaticParts) Total() float64 { return p.Laser + p.Heating }

// Caps advertises what communication patterns a network supports natively;
// mappers consult it to decide whether broadcast must be emulated.
type Caps struct {
	CrossChipletBroadcast  bool // one GB transmission reaches PEs on many chiplets
	SingleChipletBroadcast bool // one GB transmission reaches many PEs on one chiplet
}

// Model is one interconnect under evaluation.
type Model interface {
	Name() string
	Caps() Caps

	// TransferTime returns the seconds needed to move the flow, assuming
	// the flow has the network to itself (contention between flow classes
	// is handled by the simulator's channel accounting).
	TransferTime(f Flow) float64

	// DynamicEnergy returns the energy consumed moving the flow.
	DynamicEnergy(f Flow) EnergyParts

	// StaticPower returns always-on power (laser, ring heaters); zero for
	// all-electrical networks.
	StaticPower() StaticParts

	// PacketLatency returns the unloaded source-to-destination latency of
	// one small packet travelling the flow's path.
	PacketLatency(f Flow) float64
}

// Fingerprinter is optionally implemented by network models that can render
// their entire configuration as a deterministic string. spacx-serve's
// response cache and the batch kernel's cohorts (internal/sim) key on it;
// two models with equal fingerprints must produce identical times, energies,
// and caps for every flow. The empty string means "no fingerprint": such a
// model is never cached.
type Fingerprinter interface {
	Fingerprint() string
}

// FingerprintOf returns m's configuration fingerprint, or ok=false when the
// model does not advertise one (or advertises an empty one).
func FingerprintOf(m Model) (fp string, ok bool) {
	f, isFP := m.(Fingerprinter)
	if !isFP {
		return "", false
	}
	fp = f.Fingerprint()
	return fp, fp != ""
}
