package dnn

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOutDim(t *testing.T) {
	cases := []struct {
		in, k, stride, pad, want int
	}{
		{224, 7, 2, 3, 112},
		{56, 3, 1, 1, 56},
		{56, 1, 1, 0, 56},
		{56, 1, 2, 0, 28},
		{4, 2, 1, 0, 3}, // the paper's Figure 8 example: E = H-R+1
	}
	for _, c := range cases {
		if got := outDim(c.in, c.k, c.stride, c.pad); got != c.want {
			t.Errorf("outDim(%d,%d,%d,%d) = %d, want %d",
				c.in, c.k, c.stride, c.pad, got, c.want)
		}
	}
}

func TestNewConvDerivesOfmap(t *testing.T) {
	l := NewConv("x", 224, 224, 7, 7, 3, 64, 2, 3)
	if l.E != 112 || l.F != 112 {
		t.Errorf("conv1 E,F = %d,%d, want 112,112", l.E, l.F)
	}
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNewSameConvCeil(t *testing.T) {
	// Odd spatial extent with stride 2 must round up (TF-style same pad).
	l := NewSameConv("x", 75, 3, 8, 8, 2)
	if l.E != 38 {
		t.Errorf("75/2 same conv E = %d, want 38", l.E)
	}
	l = NewSameConv("y", 56, 3, 8, 8, 1)
	if l.E != 56 {
		t.Errorf("same conv stride 1 E = %d, want 56", l.E)
	}
}

func TestNewDepthwise(t *testing.T) {
	l := NewDepthwise("dw", 32, 3, 96, 1)
	if l.Groups != 96 || l.C != 96 || l.K != 96 {
		t.Errorf("depthwise dims wrong: %+v", l)
	}
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
	// Depthwise MACs: K*E*F*R*S*(C/groups) with C/groups = 1.
	want := int64(96) * 32 * 32 * 3 * 3
	if got := l.MACs(); got != want {
		t.Errorf("depthwise MACs = %d, want %d", got, want)
	}
}

func TestNewFC(t *testing.T) {
	l := NewFC("fc", 2048, 1000)
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
	if got := l.MACs(); got != 2048*1000 {
		t.Errorf("FC MACs = %d, want %d", got, 2048*1000)
	}
	if l.OfmapCount() != 1000 {
		t.Errorf("FC ofmap = %d, want 1000", l.OfmapCount())
	}
	if !strings.Contains(l.String(), "fc 2048->1000") {
		t.Errorf("FC String = %q", l.String())
	}
}

func TestLayerCounts(t *testing.T) {
	// The paper's Figure 8 example layer: [r s e f c k] = [2 2 4 4 3 8]
	// over a 5x5 ifmap (H = E+R-1).
	l := NewConv("fig8", 5, 5, 2, 2, 3, 8, 1, 0)
	if l.E != 4 || l.F != 4 {
		t.Fatalf("E,F = %d,%d, want 4,4", l.E, l.F)
	}
	if got := l.WeightCount(); got != 8*2*2*3 {
		t.Errorf("weights = %d, want %d", got, 8*2*2*3)
	}
	if got := l.IfmapCount(); got != 5*5*3 {
		t.Errorf("ifmaps = %d, want %d", got, 5*5*3)
	}
	if got := l.OfmapCount(); got != 8*4*4 {
		t.Errorf("ofmaps = %d, want %d", got, 8*4*4)
	}
	if got := l.MACs(); got != 8*4*4*2*2*3 {
		t.Errorf("MACs = %d, want %d", got, 8*4*4*2*2*3)
	}
	if got := l.OutputPositions(); got != 16 {
		t.Errorf("output positions = %d, want 16", got)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Layer{
		{},
		{Name: "neg", R: 3, S: 3, C: -1, K: 8, H: 8, W: 8, E: 8, F: 8, Stride: 1, Groups: 1, Repeat: 1},
		{Name: "stride0", R: 1, S: 1, C: 1, K: 1, H: 1, W: 1, E: 1, F: 1, Stride: 0, Groups: 1, Repeat: 1},
		{Name: "groups", R: 1, S: 1, C: 3, K: 4, H: 2, W: 2, E: 2, F: 2, Stride: 1, Groups: 2, Repeat: 1},
		{Name: "repeat", R: 1, S: 1, C: 1, K: 1, H: 1, W: 1, E: 1, F: 1, Stride: 1, Groups: 1, Repeat: 0},
		{Name: "kernel", R: 9, S: 9, C: 1, K: 1, H: 2, W: 2, E: 1, F: 1, Stride: 1, Groups: 1, Repeat: 1},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("layer %q should fail validation", l.Name)
		}
	}
}

func TestTimes(t *testing.T) {
	l := NewFC("x", 4, 4).Times(3)
	if l.Repeat != 3 {
		t.Errorf("Repeat = %d, want 3", l.Repeat)
	}
}

// Property: MAC count factorizes as ofmap size x per-output work.
func TestMACsFactorization(t *testing.T) {
	f := func(r, c, k, e uint8) bool {
		layer := Layer{
			Name: "q", R: int(r%5) + 1, S: int(r%5) + 1,
			C: int(c%64) + 1, K: int(k%64) + 1,
			E: int(e%32) + 1, F: int(e%32) + 1,
			Stride: 1, Groups: 1, Repeat: 1,
		}
		layer.H = layer.E + layer.R - 1
		layer.W = layer.F + layer.S - 1
		perOutput := int64(layer.R) * int64(layer.S) * int64(layer.C)
		return layer.MACs() == layer.OfmapCount()*perOutput/int64(layer.K)*int64(layer.K)/int64(layer.E*layer.F)*int64(layer.E*layer.F) &&
			layer.MACs() == int64(layer.K)*int64(layer.E)*int64(layer.F)*perOutput
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArithmeticIntensity(t *testing.T) {
	// A 3x3 conv reuses data heavily; an FC layer has intensity < 1.5.
	conv := NewSameConv("c", 56, 3, 64, 64, 1)
	fc := NewFC("f", 4096, 4096)
	if conv.ArithmeticIntensity() < 10 {
		t.Errorf("conv intensity = %v, expected high reuse", conv.ArithmeticIntensity())
	}
	if fc.ArithmeticIntensity() > 1.5 {
		t.Errorf("fc intensity = %v, expected ~1", fc.ArithmeticIntensity())
	}
}

func TestWithBatch(t *testing.T) {
	l := NewSameConv("c", 28, 3, 64, 64, 1)
	b := l.WithBatch(8)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.MACs() != 8*l.MACs() {
		t.Errorf("batched MACs = %d, want %d", b.MACs(), 8*l.MACs())
	}
	if b.IfmapCount() != 8*l.IfmapCount() || b.OfmapCount() != 8*l.OfmapCount() {
		t.Error("batched activation counts should scale by 8")
	}
	if b.WeightCount() != l.WeightCount() {
		t.Error("weights are shared across the batch")
	}
	if b.OutputPositions() != 8*l.OutputPositions() {
		t.Error("batched output plane should scale by 8")
	}
	// Zero batch behaves as 1.
	if b0 := l.WithBatch(0); l.MACs() != b0.MACs() {
		t.Error("batch 0 should mean batch 1")
	}
	if neg := l.WithBatch(-2); neg.Validate() == nil {
		t.Error("negative batch should fail validation")
	}
}
