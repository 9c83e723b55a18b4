// Package spacxnet implements the SPACX hierarchical photonic network of
// Section III: a global waveguide per cross-chiplet broadcast group, a local
// waveguide per single-chiplet broadcast group, wavelength allocation into a
// cross-chiplet group X and a single-chiplet group Y, interposer/chiplet
// interfaces built from optical tunable splitters and filters, and the
// token-ring PE-to-GB return channel.
//
// The broadcast granularities of Section V generalize the four named
// configurations of Table I: GEF is the cross-chiplet broadcast group size in
// chiplets ("e/f granularity"), GK the single-chiplet broadcast group size in
// PEs ("k granularity"). Configuration A is (GEF=M, GK=N); B halves GEF;
// C halves GK; D halves both.
package spacxnet

import (
	"fmt"

	"spacx/internal/photonic"
)

// Config describes one SPACX photonic network instance.
type Config struct {
	M int // chiplets
	N int // PEs per chiplet

	GEF int // cross-chiplet broadcast granularity: chiplets per broadcast group
	GK  int // single-chiplet broadcast granularity: PEs per broadcast group

	Params photonic.Params

	// Geometry used by the insertion-loss budget.
	ChipletPitchCM     float64 // global waveguide length added per chiplet spanned
	LocalPerPECM       float64 // local waveguide length added per PE spanned
	GBToInterposerCM   float64 // fixed lead-in from the GB die
	WaveguideBends     int     // worst-case bends along one path
	WaveguideCrossings int     // worst-case crossings along one path

	// WaveguideDriverMw is the per-waveguide electrical overhead at the GB
	// (serializer clocking and the splitter-control DACs of Figure 6),
	// charged to transmitter circuit power.
	WaveguideDriverMw float64
}

// Default geometry constants: a 4.07 mm^2 chiplet gives ~2 mm pitch.
const (
	defaultChipletPitchCM    = 0.02
	defaultLocalPerPECM      = 0.05
	defaultGBToInterposerCM  = 0.3
	defaultBends             = 1
	defaultCrossings         = 0
	defaultWaveguideDriverMw = 50
)

// New returns a validated config with default geometry.
func New(m, n, gef, gk int, p photonic.Params) (Config, error) {
	c := Config{
		M: m, N: n, GEF: gef, GK: gk, Params: p,
		ChipletPitchCM:     defaultChipletPitchCM,
		LocalPerPECM:       defaultLocalPerPECM,
		GBToInterposerCM:   defaultGBToInterposerCM,
		WaveguideBends:     defaultBends,
		WaveguideCrossings: defaultCrossings,
		WaveguideDriverMw:  defaultWaveguideDriverMw,
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Default32 is the evaluation configuration of Section VII-C: M=32 chiplets,
// N=32 PEs per chiplet, broadcast granularities e/f=8 and k=16, moderate
// photonic parameters.
func Default32() Config {
	c, err := New(32, 32, 8, 16, photonic.Moderate())
	if err != nil {
		panic(err) // unreachable: constants are valid
	}
	return c
}

// Validate checks the structural invariants of the topology.
func (c Config) Validate() error {
	switch {
	case c.M <= 0 || c.N <= 0:
		return fmt.Errorf("spacxnet: M=%d N=%d must be positive", c.M, c.N)
	case c.GEF <= 0 || c.GK <= 0:
		return fmt.Errorf("spacxnet: granularities GEF=%d GK=%d must be positive", c.GEF, c.GK)
	case c.M%c.GEF != 0:
		return fmt.Errorf("spacxnet: GEF=%d must divide M=%d", c.GEF, c.M)
	case c.N%c.GK != 0:
		return fmt.Errorf("spacxnet: GK=%d must divide N=%d", c.GK, c.N)
	}
	if w := c.Wavelengths(); w > photonic.MaxWavelengthsPerWaveguide {
		return fmt.Errorf("spacxnet: %d wavelengths exceed the %d WDM bound",
			w, photonic.MaxWavelengthsPerWaveguide)
	}
	return nil
}

// CrossGroups is the number of cross-chiplet broadcast groups (each with its
// own set of global waveguides).
func (c Config) CrossGroups() int { return c.M / c.GEF }

// SingleGroupsPerChiplet is the number of single-chiplet broadcast groups on
// each chiplet (each with its own local waveguide).
func (c Config) SingleGroupsPerChiplet() int { return c.N / c.GK }

// GlobalWaveguides is the number of physical global waveguides: one per
// (cross group, single group) pair — Table I row 1.
func (c Config) GlobalWaveguides() int {
	return c.CrossGroups() * c.SingleGroupsPerChiplet()
}

// LocalWaveguidesPerChiplet is Table I row 2.
func (c Config) LocalWaveguidesPerChiplet() int { return c.SingleGroupsPerChiplet() }

// Wavelengths is the number of distinct wavelengths needed (Table I row 3):
// GK cross-chiplet wavelengths (group X, one per PE position in a single
// group, reused across waveguides) plus GEF single-chiplet wavelengths
// (group Y, one per chiplet position in a cross group, also used for the
// PE-to-GB return).
func (c Config) Wavelengths() int { return c.GK + c.GEF }

// SingleWavelengths returns |Y|, the single-chiplet wavelength group.
func (c Config) SingleWavelengths() int { return c.GEF }

// PEsPerWaveguide is Table I row 4: one global waveguide serves GEF chiplets
// times GK PEs each.
func (c Config) PEsPerWaveguide() int { return c.GEF * c.GK }

// InterfaceMRRsPerInterface is the ring count of one interposer+chiplet
// interface pair (Figure 6): GK tunable splitters for the cross wavelengths,
// one filter dropping the single-chiplet wavelength, and one filter returning
// the modulated PE-to-GB wavelength.
func (c Config) InterfaceMRRsPerInterface() int { return c.GK + 2 }

// InterfaceCount is the number of interposer interfaces: each chiplet
// connects to SingleGroupsPerChiplet global waveguides.
func (c Config) InterfaceCount() int { return c.M * c.SingleGroupsPerChiplet() }

// InterfaceMRRs is Table I row 5: total MRRs across all interfaces.
func (c Config) InterfaceMRRs() int {
	return c.InterfaceCount() * c.InterfaceMRRsPerInterface()
}

// PEMRRs is the ring count at the PEs: each PE carries a tunable splitter
// (receiver 0, single-chiplet wavelength), a filter (receiver 1,
// cross-chiplet wavelength), and a modulator (transmitter) — Figure 7.
func (c Config) PEMRRs() int { return c.M * c.N * 3 }

// GBTransmitters is the modulator count at the GB: one per wavelength per
// global waveguide.
func (c Config) GBTransmitters() int {
	return c.GlobalWaveguides() * c.Wavelengths()
}

// GBReceivers is the GB-side filter/photodetector count: one per
// single-chiplet (return) wavelength per global waveguide.
func (c Config) GBReceivers() int {
	return c.GlobalWaveguides() * c.SingleWavelengths()
}

// MRRsPerChiplet reproduces the Section VIII-G inventory: the rings
// physically underneath one chiplet (PE rings plus its interfaces).
func (c Config) MRRsPerChiplet() int {
	return c.N*3 + c.SingleGroupsPerChiplet()*c.InterfaceMRRsPerInterface()
}

// TotalMRRs counts every ring in the network.
func (c Config) TotalMRRs() int {
	return c.PEMRRs() + c.InterfaceMRRs() + c.GBTransmitters() + c.GBReceivers()
}

func (c Config) String() string {
	return fmt.Sprintf("SPACX[M=%d N=%d e/f=%d k=%d %s]",
		c.M, c.N, c.GEF, c.GK, c.Params.Name)
}

// TableIRow captures one column of Table I for reporting.
type TableIRow struct {
	Name             string
	GlobalWaveguides int
	LocalPerChiplet  int
	Wavelengths      int
	PEsPerWaveguide  int
	InterfaceMRRs    int
}

// TableI reproduces Table I: the four named configurations of the 8x8
// example architecture (Figure 5).
func TableI() ([]TableIRow, error) {
	specs := []struct {
		name    string
		gef, gk int
	}{
		{"A", 8, 8}, // original Figure 5 network
		{"B", 4, 8}, // finer cross-chiplet granularity (Figure 10)
		{"C", 8, 4}, // finer single-chiplet granularity (Figure 11)
		{"D", 4, 4}, // both
	}
	rows := make([]TableIRow, 0, len(specs))
	for _, s := range specs {
		c, err := New(8, 8, s.gef, s.gk, photonic.Moderate())
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", s.name, err)
		}
		rows = append(rows, TableIRow{
			Name:             s.name,
			GlobalWaveguides: c.GlobalWaveguides(),
			LocalPerChiplet:  c.LocalWaveguidesPerChiplet(),
			Wavelengths:      c.Wavelengths(),
			PEsPerWaveguide:  c.PEsPerWaveguide(),
			InterfaceMRRs:    c.InterfaceMRRs(),
		})
	}
	return rows, nil
}
