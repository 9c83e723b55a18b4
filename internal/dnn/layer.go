// Package dnn defines the DNN layer parameterization used throughout the
// simulator and provides the four benchmark models of the paper's evaluation
// (Section VII-D): ResNet-50, VGG-16, DenseNet-201, and EfficientNet-B7.
//
// Following the paper, only convolution and fully-connected layers are
// modelled (auxiliary operations such as pooling, activation, and
// normalization execute on the GB die and are excluded from the accounting).
// Redundant layers that share identical parameters are deduplicated and carry
// a Repeat count so whole-inference accumulation still covers every instance.
package dnn

import (
	"errors"
	"fmt"
)

// Kind classifies a layer.
type Kind int

const (
	// Conv is a standard (possibly grouped or depthwise) convolution.
	Conv Kind = iota
	// FC is a fully-connected layer, modelled as a 1x1 convolution over a
	// 1x1 spatial extent (Figure 4 degenerates to a matrix-vector product).
	FC
)

func (k Kind) String() string {
	switch k {
	case Conv:
		return "conv"
	case FC:
		return "fc"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Layer holds the nested-loop dimensions of Figure 3/4: weight kernels
// R x S over C input channels producing K output channels, applied to an
// H x W ifmap yielding an E x F ofmap.
type Layer struct {
	Name string
	Kind Kind

	R, S int // kernel height, width
	C, K int // input channels, output channels
	H, W int // ifmap height, width
	E, F int // ofmap height, width (derived by the constructors)

	Stride int
	Pad    int
	Groups int // 1 = dense conv; C = depthwise

	// Repeat is how many identical instances of this layer the full model
	// contains (the paper deduplicates, e.g. res2a_branch1 vs
	// res2[a-c]_branch2c, but accumulates over all instances).
	Repeat int

	// Batch is the number of input samples processed together. The paper
	// assumes batch 1 (Figure 4); a larger batch multiplies the output
	// positions, activations, and MACs while weights stay shared — the
	// extension studied by exp.BatchScaling. Zero means 1.
	Batch int
}

// batch returns the effective batch size (zero value means 1).
func (l *Layer) batch() int64 {
	if l.Batch <= 1 {
		return 1
	}
	return int64(l.Batch)
}

// WithBatch returns a copy of the layer at the given batch size.
func (l Layer) WithBatch(b int) Layer {
	l.Batch = b
	return l
}

// outDim computes one output spatial dimension.
func outDim(in, k, stride, pad int) int {
	return (in-k+2*pad)/stride + 1
}

// NewConv builds a convolution layer and derives the ofmap dimensions.
func NewConv(name string, h, w, r, s, c, k, stride, pad int) Layer {
	l := Layer{
		Name: name, Kind: Conv,
		R: r, S: s, C: c, K: k, H: h, W: w,
		Stride: stride, Pad: pad, Groups: 1, Repeat: 1,
	}
	l.E = outDim(h, r, stride, pad)
	l.F = outDim(w, s, stride, pad)
	return l
}

// NewSameConv builds a square "same"-padded convolution: pad = r/2, so the
// output extent is ceil(h/stride).
func NewSameConv(name string, h, r, c, k, stride int) Layer {
	l := NewConv(name, h, h, r, r, c, k, stride, r/2)
	// "Same" padding with even inputs and stride 2 should give ceil(h/s);
	// adjust asymmetric-padding cases (TensorFlow-style) to match.
	want := (h + stride - 1) / stride
	if l.E != want {
		l.E, l.F = want, want
	}
	return l
}

// NewDepthwise builds a depthwise ("groups == channels") convolution.
func NewDepthwise(name string, h, r, c, stride int) Layer {
	l := NewSameConv(name, h, r, c, c, stride)
	l.Groups = c
	return l
}

// NewFC builds a fully-connected layer with in inputs and out outputs.
func NewFC(name string, in, out int) Layer {
	return Layer{
		Name: name, Kind: FC,
		R: 1, S: 1, C: in, K: out, H: 1, W: 1, E: 1, F: 1,
		Stride: 1, Groups: 1, Repeat: 1,
	}
}

// Times returns a copy of the layer with the given repeat count.
func (l Layer) Times(n int) Layer {
	l.Repeat = n
	return l
}

// Validate checks internal consistency of the dimension set.
func (l *Layer) Validate() error {
	switch {
	case l.R <= 0 || l.S <= 0 || l.C <= 0 || l.K <= 0 ||
		l.H <= 0 || l.W <= 0 || l.E <= 0 || l.F <= 0:
		// Format the value, not l: passing the pointer to fmt would move
		// every validated layer to the heap.
		return fmt.Errorf("dnn: layer %q has non-positive dimension: %+v", l.Name, *l)
	case l.Stride <= 0:
		return fmt.Errorf("dnn: layer %q has non-positive stride", l.Name)
	case l.Groups <= 0 || l.C%l.Groups != 0 || l.K%l.Groups != 0:
		return fmt.Errorf("dnn: layer %q has invalid groups %d for C=%d K=%d",
			l.Name, l.Groups, l.C, l.K)
	case l.Repeat <= 0:
		return errors.New("dnn: layer repeat must be positive")
	case l.Batch < 0:
		return fmt.Errorf("dnn: layer %q has negative batch %d", l.Name, l.Batch)
	case l.R > l.H+2*l.Pad || l.S > l.W+2*l.Pad:
		return fmt.Errorf("dnn: layer %q kernel exceeds padded input", l.Name)
	}
	return nil
}

// MACs returns the multiply-accumulate count of one instance of the layer:
// K * E * F * R * S * C/Groups.
func (l *Layer) MACs() int64 {
	return l.batch() * int64(l.K) * int64(l.E) * int64(l.F) *
		int64(l.R) * int64(l.S) * int64(l.C/l.Groups)
}

// WeightCount returns the number of weight values: K * R * S * C/Groups.
func (l *Layer) WeightCount() int64 {
	return int64(l.K) * int64(l.R) * int64(l.S) * int64(l.C/l.Groups)
}

// IfmapCount returns the number of input-feature values: H * W * C.
func (l *Layer) IfmapCount() int64 {
	return l.batch() * int64(l.H) * int64(l.W) * int64(l.C)
}

// OfmapCount returns the number of output-feature values: K * E * F.
func (l *Layer) OfmapCount() int64 {
	return l.batch() * int64(l.K) * int64(l.E) * int64(l.F)
}

// OutputPositions returns Batch*E*F, the per-channel output plane size that
// the SPACX dataflow distributes across chiplets (independent samples extend
// the e/f plane).
func (l *Layer) OutputPositions() int64 { return l.batch() * int64(l.E) * int64(l.F) }

// ArithmeticIntensity is MACs per input value moved (weights + ifmaps),
// a rough communication-boundedness indicator used in tests and reports.
func (l Layer) ArithmeticIntensity() float64 {
	return float64(l.MACs()) / float64(l.WeightCount()+l.IfmapCount())
}

func (l Layer) String() string {
	if l.Kind == FC {
		return fmt.Sprintf("%s fc %d->%d x%d", l.Name, l.C, l.K, l.Repeat)
	}
	g := ""
	if l.Groups > 1 {
		g = fmt.Sprintf(" g%d", l.Groups)
	}
	return fmt.Sprintf("%s conv %dx%d %dx%d C%d K%d s%d%s -> %dx%d x%d",
		l.Name, l.H, l.W, l.R, l.S, l.C, l.K, l.Stride, g, l.E, l.F, l.Repeat)
}

// Model is an ordered list of (deduplicated) layers plus bookkeeping.
type Model struct {
	Name   string
	Layers []Layer
}

// Validate validates every layer.
func (m Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("dnn: model %q has no layers", m.Name)
	}
	for i := range m.Layers {
		if err := m.Layers[i].Validate(); err != nil {
			return fmt.Errorf("model %q: %w", m.Name, err)
		}
	}
	return nil
}

// TotalMACs sums MACs across all layer instances (repeats included).
func (m Model) TotalMACs() int64 {
	var total int64
	for _, l := range m.Layers {
		total += l.MACs() * int64(l.Repeat)
	}
	return total
}

// TotalWeights sums weight counts across all layer instances.
func (m Model) TotalWeights() int64 {
	var total int64
	for _, l := range m.Layers {
		total += l.WeightCount() * int64(l.Repeat)
	}
	return total
}

// LayerInstances returns the total layer count including repeats.
func (m Model) LayerInstances() int {
	n := 0
	for _, l := range m.Layers {
		n += l.Repeat
	}
	return n
}
