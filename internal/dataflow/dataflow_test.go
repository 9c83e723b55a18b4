package dataflow

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"spacx/internal/dnn"
	"spacx/internal/network"
	"spacx/internal/network/spacxnet"
	"spacx/internal/photonic"
)

// testArch returns the evaluation SPACX architecture (Section VII-C).
func testArch(t *testing.T) Arch {
	t.Helper()
	return Arch{
		Name: "SPACX", M: 32, N: 32,
		VectorWidth: 32, ClockHz: 1e9,
		PEBufBytes: 4 * 1024, GBBytes: 2 << 20,
		GEF: 8, GK: 16,
		Net: spacxnet.MustModel(spacxnet.Default32()),
	}
}

func TestArchValidate(t *testing.T) {
	a := testArch(t)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := a
	bad.GEF = 7
	if err := bad.Validate(); err == nil {
		t.Error("GEF=7 should not divide M=32")
	}
	bad = a
	bad.Net = nil
	if err := bad.Validate(); err == nil {
		t.Error("missing network should fail")
	}
	bad = a
	bad.VectorWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero vector width should fail")
	}
}

func TestSPACXFig8Example(t *testing.T) {
	// The worked example of Figure 8: [r s e f c k] = [2 2 4 4 3 8] on the
	// 8-chiplet, 8-PE architecture of Figure 5 (granularity A: GEF=8,GK=8).
	l := dnn.NewConv("fig8", 5, 5, 2, 2, 3, 8, 1, 0)
	a := Arch{
		Name: "SPACX8", M: 8, N: 8, VectorWidth: 1, ClockHz: 1e9,
		PEBufBytes: 4 * 1024, GBBytes: 2 << 20, GEF: 8, GK: 8,
		Net: spacxnet.MustModel(mustCfg(t, 8, 8, 8, 8)),
	}
	p, err := SPACX{BandwidthAllocation: true}.Map(l, a)
	if err != nil {
		t.Fatal(err)
	}
	// 16 output positions over 8 chiplets (E2=2, F2=3... the paper maps two
	// rows per chiplet => 8 position slots, 2 e/f iterations), 8 output
	// channels over the 8 PEs of each chiplet.
	if p.ActiveChiplets != 8 {
		t.Errorf("active chiplets = %d, want 8", p.ActiveChiplets)
	}
	if p.ActivePEs != 64 {
		t.Errorf("active PEs = %d, want 64", p.ActivePEs)
	}
	// Work conservation: the schedule's MAC capacity covers the layer.
	capacity := p.VectorSteps * int64(p.ActivePEs) * int64(a.VectorWidth)
	if capacity < p.MACs() {
		t.Errorf("schedule capacity %d < MACs %d", capacity, p.MACs())
	}
}

func mustCfg(t *testing.T, m, n, gef, gk int) spacxnet.Config {
	t.Helper()
	c, err := spacxnet.New(m, n, gef, gk, spacxnet.Default32().Params)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSPACXWorkConservationProperty(t *testing.T) {
	a := testArch(t)
	df := SPACX{BandwidthAllocation: true}
	f := func(r, c, k, e uint8) bool {
		layer := dnn.NewSameConv("q", int(e%64)+1, 2*int(r%2)+1, int(c)+1, int(k)+1, 1)
		p, err := df.Map(layer, a)
		if err != nil {
			return false
		}
		capacity := p.VectorSteps * int64(p.ActivePEs) * int64(a.VectorWidth)
		return capacity >= p.MACs() && p.ActivePEs <= a.TotalPEs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSPACXFlowsValid(t *testing.T) {
	a := testArch(t)
	for _, m := range dnn.Benchmarks() {
		for _, l := range m.Layers {
			p, err := SPACX{BandwidthAllocation: true}.Map(l, a)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, l.Name, err)
			}
			if len(p.Flows) != 3 {
				t.Fatalf("%s: flows = %d, want 3", l.Name, len(p.Flows))
			}
			for _, f := range p.Flows {
				if err := f.Validate(); err != nil {
					t.Errorf("%s/%s: %v", m.Name, l.Name, err)
				}
				if f.UniqueBytes <= 0 {
					t.Errorf("%s/%s %v flow has no bytes", m.Name, l.Name, f.Class)
				}
			}
		}
	}
}

func TestSPACXTrafficAtLeastUniqueData(t *testing.T) {
	// Weights must traverse the network at least once each; ifmaps at least
	// the touched volume for stride-1 convs.
	a := testArch(t)
	l := dnn.NewSameConv("c3", 56, 3, 64, 64, 1)
	p, err := SPACX{BandwidthAllocation: true}.Map(l, a)
	if err != nil {
		t.Fatal(err)
	}
	var wBytes, iBytes int64
	for _, f := range p.Flows {
		switch f.Class {
		case network.Weights:
			wBytes = f.UniqueBytes
		case network.Ifmaps:
			iBytes = f.UniqueBytes
		}
	}
	if wBytes < l.WeightCount() {
		t.Errorf("weight traffic %d < unique weights %d", wBytes, l.WeightCount())
	}
	if iBytes < l.IfmapCount()/2 {
		t.Errorf("ifmap traffic %d implausibly below touched volume %d", iBytes, l.IfmapCount())
	}
}

func TestSPACXBroadcastWidths(t *testing.T) {
	a := testArch(t)
	l := dnn.NewSameConv("c3", 56, 3, 64, 64, 1)
	p, _ := SPACX{BandwidthAllocation: false}.Map(l, a)
	for _, f := range p.Flows {
		switch f.Class {
		case network.Weights:
			// posSlots = GEF * (N/GK) = 8*2 = 16 positions share a weight.
			if f.DestPerDatum != 16 {
				t.Errorf("weight broadcast width = %d, want 16", f.DestPerDatum)
			}
		case network.Ifmaps:
			// usedK = min(64, GK*crossGroups=64) channels share a window.
			if f.DestPerDatum != 64 {
				t.Errorf("ifmap broadcast width = %d, want 64", f.DestPerDatum)
			}
		}
	}
}

func TestSPACXFCLowUtilization(t *testing.T) {
	// Section VIII-A1: in FC layers "the computation time in SPACX is
	// higher ... because the small e/f values have led to low chiplet
	// utilization".
	a := testArch(t)
	fc := dnn.NewFC("fc", 4096, 4096)
	p, err := SPACX{BandwidthAllocation: true}.Map(fc, a)
	if err != nil {
		t.Fatal(err)
	}
	if p.Utilization(a) > 0.1 {
		t.Errorf("FC utilization = %v, expected low (single output position)", p.Utilization(a))
	}
	conv := dnn.NewSameConv("c", 56, 3, 64, 64, 1)
	pc, _ := SPACX{BandwidthAllocation: true}.Map(conv, a)
	if pc.Utilization(a) <= p.Utilization(a) {
		t.Errorf("conv utilization %v should exceed FC %v", pc.Utilization(a), p.Utilization(a))
	}
}

func TestBandwidthAllocationBalances(t *testing.T) {
	a := testArch(t)

	// A late-stage 1x1 conv (ResNet-50 L18 shape) is weight-bound: BA
	// should borrow Y wavelengths for single-chiplet weight multicast.
	wb := dnn.NewSameConv("l18", 7, 1, 2048, 512, 1)
	on, err := SPACX{BandwidthAllocation: true}.Map(wb, a)
	if err != nil {
		t.Fatal(err)
	}
	off, err := SPACX{BandwidthAllocation: false}.Map(wb, a)
	if err != nil {
		t.Fatal(err)
	}
	var wOn, wOff network.Flow
	for i, f := range on.Flows {
		if f.Class == network.Weights {
			wOn, wOff = f, off.Flows[i]
		}
	}
	if wOn.Streams <= wOff.Streams {
		t.Errorf("BA should add weight streams on a weight-bound layer: %d vs %d",
			wOn.Streams, wOff.Streams)
	}
	if a.Net.TransferTime(wOn) >= a.Net.TransferTime(wOff) {
		t.Error("BA did not reduce weight transfer time")
	}

	// An early 3x3 conv is ifmap-bound: BA should borrow X wavelengths for
	// cross-chiplet ifmap multicast (Figure 12).
	ib := dnn.NewSameConv("l3", 56, 3, 64, 64, 1)
	on, err = SPACX{BandwidthAllocation: true}.Map(ib, a)
	if err != nil {
		t.Fatal(err)
	}
	off, _ = SPACX{BandwidthAllocation: false}.Map(ib, a)
	var iOn, iOff network.Flow
	for i, f := range on.Flows {
		if f.Class == network.Ifmaps {
			iOn, iOff = f, off.Flows[i]
		}
	}
	if iOn.Streams <= iOff.Streams {
		t.Errorf("BA should add ifmap streams on an ifmap-bound layer: %d vs %d",
			iOn.Streams, iOff.Streams)
	}
	if iOn.TxCopies <= iOff.TxCopies {
		t.Error("borrowed multicast should cost extra transmitter copies")
	}
}

func TestWSPsumFlowExists(t *testing.T) {
	a := testArch(t)
	l := dnn.NewSameConv("c", 28, 3, 512, 512, 1)
	p, err := WS{}.Map(l, a)
	if err != nil {
		t.Fatal(err)
	}
	var hasPsum bool
	for _, f := range p.Flows {
		if f.Class == network.Psums && f.Dir == network.PEToPE {
			hasPsum = true
			if f.UniqueBytes <= 0 {
				t.Error("psum flow empty")
			}
		}
	}
	if !hasPsum {
		t.Error("WS with C=512 must spatially reduce psums")
	}
	// Work conservation for WS too.
	capacity := p.VectorSteps * int64(p.ActivePEs) * int64(a.VectorWidth)
	if capacity < p.MACs() {
		t.Errorf("WS schedule capacity %d < MACs %d", capacity, p.MACs())
	}
}

func TestOSEFWeightsFullyShared(t *testing.T) {
	a := testArch(t)
	l := dnn.NewSameConv("c", 56, 3, 64, 64, 1)
	p, err := OSEF{}.Map(l, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Flows {
		if f.Class == network.Weights {
			// Every active PE consumes every weight.
			if f.DestPerDatum < p.ActivePEs/2 {
				t.Errorf("OS(e/f) weight broadcast width = %d, want ~%d",
					f.DestPerDatum, p.ActivePEs)
			}
		}
		if f.Class == network.Psums {
			t.Error("output-stationary dataflow must not move psums")
		}
	}
	capacity := p.VectorSteps * int64(p.ActivePEs) * int64(a.VectorWidth)
	if capacity < p.MACs() {
		t.Errorf("OS(e/f) capacity %d < MACs %d", capacity, p.MACs())
	}
}

func TestAllDataflowsOnAllBenchmarks(t *testing.T) {
	a := testArch(t)
	dfs := []Dataflow{SPACX{BandwidthAllocation: true}, SPACX{}, WS{}, OSEF{}}
	for _, df := range dfs {
		for _, m := range dnn.Benchmarks() {
			for _, l := range m.Layers {
				p, err := df.Map(l, a)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", df.Name(), m.Name, l.Name, err)
				}
				if p.VectorSteps <= 0 {
					t.Errorf("%s/%s: zero steps", df.Name(), l.Name)
				}
				if p.PEBufReadBytes <= 0 || p.GBReadBytes <= 0 {
					t.Errorf("%s/%s: missing access counts", df.Name(), l.Name)
				}
				capacity := p.VectorSteps * int64(p.ActivePEs) * int64(a.VectorWidth)
				if capacity < p.MACs() {
					t.Errorf("%s/%s/%s: capacity %d < MACs %d",
						df.Name(), m.Name, l.Name, capacity, p.MACs())
				}
			}
		}
	}
}

func TestDataflowNames(t *testing.T) {
	if (SPACX{BandwidthAllocation: true}).Name() != "SPACX" {
		t.Error("SPACX with BA should be named SPACX")
	}
	if (SPACX{}).Name() != "SPACX-BA" {
		t.Error("SPACX without BA should be named SPACX-BA (paper's label)")
	}
	if (WS{}).Name() != "WS" || (OSEF{}).Name() != "OS(e/f)" {
		t.Error("unexpected dataflow names")
	}
}

func TestExplain(t *testing.T) {
	a := testArch(t)
	l := dnn.NewSameConv("c3", 56, 3, 64, 64, 1)
	p, err := SPACX{BandwidthAllocation: true}.Map(l, a)
	if err != nil {
		t.Fatal(err)
	}
	s := Explain(p, a)
	for _, want := range []string{"spatial:", "temporal:", "flows:", "weights",
		"ifmaps", "outputs", "broadcast", "memory:"} {
		if !strings.Contains(s, want) {
			t.Errorf("Explain missing %q:\n%s", want, s)
		}
	}
}

// TestExplainRetuneTotal pins the retune line to the simulator's delay
// constant: the printed total is epochs × photonic.SplitterTuneDelaySeconds
// in nanoseconds, and (for the pinned rows) byte-identical to the text
// Explain has always printed.
func TestExplainRetuneTotal(t *testing.T) {
	a := testArch(t)
	p, err := SPACX{BandwidthAllocation: true}.Map(dnn.NewSameConv("c3", 56, 3, 64, 64, 1), a)
	if err != nil {
		t.Fatal(err)
	}
	delay := photonic.SplitterTuneDelaySeconds // a float64 variable: runtime arithmetic
	cases := []struct {
		epochs int64
		line   string // "" means no retune line; otherwise the pinned text
	}{
		{0, ""},
		{1, "  optical retunes: 1 epochs (0.5 ns total)\n"},
		{3, "  optical retunes: 3 epochs (1.5 ns total)\n"},
		{2048, "  optical retunes: 2048 epochs (1024.0 ns total)\n"},
		{123457, "  optical retunes: 123457 epochs (61728.5 ns total)\n"},
	}
	for _, tc := range cases {
		p.RetuneEpochs = tc.epochs
		s := Explain(p, a)
		if tc.line == "" {
			if strings.Contains(s, "optical retunes") {
				t.Errorf("epochs 0: unexpected retune line in\n%s", s)
			}
			continue
		}
		fromConst := fmt.Sprintf("  optical retunes: %d epochs (%.1f ns total)\n",
			tc.epochs, float64(tc.epochs)*delay/1e-9)
		if fromConst != tc.line {
			t.Errorf("epochs %d: constant gives %q, pinned text is %q", tc.epochs, fromConst, tc.line)
		}
		if !strings.Contains(s, tc.line) {
			t.Errorf("epochs %d: Explain lacks %q:\n%s", tc.epochs, tc.line, s)
		}
	}
}

func TestByteCount(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		2048:    "2.00 KiB",
		3 << 20: "3.00 MiB",
		5 << 30: "5.00 GiB",
	}
	for in, want := range cases {
		if got := byteCount(in); got != want {
			t.Errorf("byteCount(%d) = %q, want %q", in, got, want)
		}
	}
}
