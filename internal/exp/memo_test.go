package exp

import (
	"fmt"
	"reflect"
	"testing"

	"spacx/internal/dataflow"
	"spacx/internal/dnn"
	"spacx/internal/photonic"
	"spacx/internal/sim"
)

// memoTestAccels is sim.EvalAccelerators plus SPACX variants that each
// differ from another accelerator of the list in exactly one layerKey field,
// so a key that lost the field would hand one of them the other's memoized
// layers. The last two fail to map and differ only in name: each memoized
// error must still name its own accelerator.
func memoTestAccels(t *testing.T) []sim.Accelerator {
	t.Helper()
	aggressive, err := sim.SPACXAccelCustom(sim.EvalM, sim.EvalN, sim.EvalGEF, sim.EvalGK, photonic.Aggressive(), true)
	if err != nil {
		t.Fatal(err)
	}
	// aggressive differs from SPACX only in its network, SPACXAccelNoBA only
	// in its dataflow.
	accs := append(sim.EvalAccelerators(), aggressive, sim.SPACXAccelNoBA())
	for _, vary := range []func(*dataflow.Arch){
		func(a *dataflow.Arch) { a.M /= 2 },
		func(a *dataflow.Arch) { a.N /= 2 },
		func(a *dataflow.Arch) { a.VectorWidth /= 2 },
		func(a *dataflow.Arch) { a.ClockHz /= 2 },
		func(a *dataflow.Arch) { a.PEBufBytes *= 2 },
		func(a *dataflow.Arch) { a.GBBytes /= 4 },
		func(a *dataflow.Arch) { a.GEF /= 2 },
		func(a *dataflow.Arch) { a.GK /= 2 },
		func(a *dataflow.Arch) { a.PEBufBytes = 0 },
		func(a *dataflow.Arch) { a.PEBufBytes = 0; a.Name = "SPACX-renamed" },
	} {
		acc := sim.SPACXAccel()
		vary(&acc.Arch)
		accs = append(accs, acc)
	}
	return accs
}

// TestMemoMatchesDirectRun pins the layer memo to direct simulation: for
// every benchmark model, accelerator and residency mode, from a cold memo
// and again warm, runModelCached's totals equal sim.Run's bit for bit,
// errors included, and it keeps no per-layer results.
func TestMemoMatchesDirectRun(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	accs := memoTestAccels(t)
	for _, pass := range []string{"cold", "warm"} {
		for _, m := range dnn.Benchmarks() {
			for _, acc := range accs {
				for _, mode := range []sim.Mode{sim.LayerByLayer, sim.WholeInference} {
					name := fmt.Sprintf("%s: %s on %s (%s), %s", pass, m.Name, acc.Name(), acc.Flow.Name(), mode)
					got, gotErr := runModelCached(acc, m, mode)
					want, wantErr := sim.Run(acc, m, mode)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: memo error %v, direct error %v", name, gotErr, wantErr)
					}
					if got.Layers != nil {
						t.Fatalf("%s: memoized run keeps %d per-layer results", name, len(got.Layers))
					}
					want.Layers = nil
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: memoized totals differ from sim.Run:\n%+v\n%+v", name, got, want)
					}
				}
			}
		}
	}
}
