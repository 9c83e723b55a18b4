package dataflow

import (
	"fmt"
	"reflect"
	"testing"

	"spacx/internal/dnn"
	"spacx/internal/network/spacxnet"
)

// FuzzTiling maps arbitrary valid layer shapes through all three dataflows
// and checks the tiling invariants: no panics, utilization in (0, 1], and
// every emitted network flow internally consistent. It also pins the fill
// path to Map: one Profile and one FlowCost are refilled across WS, OS(e/f),
// SPACX, SPACX-BA and WS in turn, so a 4-flow WS mapping precedes 3-flow ones,
// and MapInto and MeasureFlowsInto must agree exactly with Map and
// MeasureFlows. The raw fuzz inputs are folded into the valid ranges rather
// than rejected, so every execution exercises the mapping code.
func FuzzTiling(f *testing.F) {
	// Seeds: the Figure 8 running example, a 1x1 conv, a depthwise conv,
	// an FC layer, and a stride-2 downsampling conv.
	f.Add(56, 3, 64, 64, 1, 1, 1)
	f.Add(56, 1, 64, 256, 1, 0, 1)
	f.Add(112, 3, 32, 32, 1, 1, 32)
	f.Add(1, 1, 2048, 1000, 1, 0, 1)
	f.Add(224, 7, 3, 64, 2, 3, 1)

	arch := Arch{
		Name: "SPACX", M: 32, N: 32,
		VectorWidth: 32, ClockHz: 1e9,
		PEBufBytes: 4 * 1024, GBBytes: 2 << 20,
		GEF: 8, GK: 16,
		Net: spacxnet.MustModel(spacxnet.Default32()),
	}
	// WS comes last too, so the fill path also overwrites what the
	// retuning SPACX mappings left in the reused profile.
	dataflows := []Dataflow{WS{}, OSEF{}, SPACX{}, SPACX{BandwidthAllocation: true}, WS{}}

	// fold maps an arbitrary int into [1, max].
	fold := func(v, max int) int {
		if v < 0 {
			v = -v
		}
		return v%max + 1
	}

	f.Fuzz(func(t *testing.T, h, r, c, k, stride, pad, groups int) {
		h = fold(h, 128)
		r = fold(r, 11)
		c = fold(c, 1024)
		k = fold(k, 1024)
		stride = fold(stride, 4)
		pad = fold(pad, r) - 1 // [0, r-1]
		groups = fold(groups, 4)
		if c%groups != 0 || k%groups != 0 {
			groups = 1
		}

		l := dnn.NewConv("fuzz", h, h, r, r, c, k, stride, pad)
		l.Groups = groups
		if l.Validate() != nil {
			return // fold can still produce kernels larger than the padded input
		}

		var reused Profile
		var cost FlowCost
		for _, df := range dataflows {
			p, err := df.Map(l, arch)
			fillErr := MapInto(df, &l, &arch, &reused)
			if fmt.Sprint(fillErr) != fmt.Sprint(err) {
				t.Fatalf("%s: MapInto error %v, Map error %v for %v", df.Name(), fillErr, err, l)
			}
			if err != nil {
				// Rejecting a shape is fine; mapping it wrongly is not.
				continue
			}
			if !reflect.DeepEqual(reused, p) {
				t.Fatalf("%s: MapInto into a reused profile differs from Map for %v:\n%+v\nvs\n%+v", df.Name(), l, reused, p)
			}
			MeasureFlowsInto(&cost, arch.Net, reused.Flows)
			if want := MeasureFlows(arch.Net, p.Flows); !reflect.DeepEqual(cost, want) {
				t.Fatalf("%s: MeasureFlowsInto into a reused slice differs from MeasureFlows for %v:\n%+v\nvs\n%+v", df.Name(), l, cost, want)
			}
			u := p.Utilization(arch)
			if !(u > 0 && u <= 1) {
				t.Errorf("%s: utilization = %v for %v, want in (0, 1]", df.Name(), u, l)
			}
			if p.VectorSteps <= 0 {
				t.Errorf("%s: VectorSteps = %d for %v, want > 0", df.Name(), p.VectorSteps, l)
			}
			for _, flow := range p.Flows {
				if err := flow.Normalize().Validate(); err != nil {
					t.Errorf("%s: invalid flow for %v: %v", df.Name(), l, err)
				}
			}
		}
	})
}
