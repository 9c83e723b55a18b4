package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spacx/internal/dataflow"
	"spacx/internal/dnn"
	"spacx/internal/obs"
)

func TestRequestRunMatchesRun(t *testing.T) {
	acc := SPACXAccel()
	m := dnn.AlexNet()
	want, err := Run(acc, m, WholeInference)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Request{Accel: acc, Model: m, Mode: WholeInference}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExecSec != want.ExecSec || got.TotalEnergy != want.TotalEnergy {
		t.Errorf("Request.Run = (%g, %g), Run = (%g, %g)",
			got.ExecSec, got.TotalEnergy, want.ExecSec, want.TotalEnergy)
	}
}

func TestRequestBatchDoesNotMutateModel(t *testing.T) {
	m := dnn.AlexNet()
	origBatch := m.Layers[0].Batch
	r := Request{Accel: SPACXAccel(), Model: m, Mode: WholeInference, Batch: 4}
	if _, err := r.Run(nil); err != nil {
		t.Fatal(err)
	}
	if m.Layers[0].Batch != origBatch {
		t.Errorf("layer 0 batch mutated: %d -> %d", origBatch, m.Layers[0].Batch)
	}
}

func TestRequestBatchMatchesWithBatch(t *testing.T) {
	acc := SPACXAccel()
	m := dnn.AlexNet()
	batched := m
	batched.Layers = append([]dnn.Layer(nil), m.Layers...)
	for i := range batched.Layers {
		batched.Layers[i] = batched.Layers[i].WithBatch(4)
	}
	want, err := Run(acc, batched, WholeInference)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Request{Accel: acc, Model: m, Mode: WholeInference, Batch: 4}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExecSec != want.ExecSec || got.TotalEnergy != want.TotalEnergy {
		t.Errorf("batched Request.Run = (%g, %g), want (%g, %g)",
			got.ExecSec, got.TotalEnergy, want.ExecSec, want.TotalEnergy)
	}
}

func TestRequestValidateRejectsNegativeBatch(t *testing.T) {
	r := Request{Accel: SPACXAccel(), Model: dnn.AlexNet(), Mode: WholeInference, Batch: -1}
	if _, err := r.Run(nil); err == nil {
		t.Error("negative batch should fail validation")
	}
}

func TestRequestRunObservedCustomRunnerCancels(t *testing.T) {
	// The custom-runner hook is how CLIs thread signal cancellation into a
	// sequential model run: the runner checks the context per layer.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Request{Accel: SPACXAccel(), Model: dnn.AlexNet(), Mode: WholeInference}
	_, err := r.Run(func(acc Accelerator, l *dnn.Layer, mode Mode, lr *LayerResult) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return runLayer(&acc, l, mode, obs.Nop(), lr)
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// tableTest is one row of a table-driven test: Got is the input under
// test, Want what it must produce, and a non-nil Err marks a misuse row that
// must fail with that error instead.
type tableTest[G any, W any] struct {
	Name string
	Got  G
	Want W
	Err  error
	Skip bool
}

// totalsBits lists every scalar total of res as raw bits, so two results
// compare bit for bit.
func totalsBits(res ModelResult) []uint64 {
	bits := []uint64{uint64(res.Mode), uint64(res.DRAMBytes)}
	for _, v := range []float64{
		res.ExecSec, res.ComputeSec, res.CommSec,
		res.ComputeEnergy, res.NetworkEnergy, res.TotalEnergy,
		res.NetDynamic.EO, res.NetDynamic.OE, res.NetDynamic.Electrical,
		res.NetStaticJ.Laser, res.NetStaticJ.Heating,
	} {
		bits = append(bits, math.Float64bits(v))
	}
	return bits
}

// TestTotalsMatchesRun pins Request.Totals to Request.Run on every catalog
// model, accelerator and residency mode, at batch 1 and at a seeded batch in
// [2, 256]: the totals agree bit for bit, Totals keeps no per-layer results,
// Run keeps one per model layer (Want), and the DRAM byte total is the sum
// of the per-layer bytes times Repeat. Misuse rows must fail the same way
// through both entry points.
func TestTotalsMatchesRun(t *testing.T) {
	const seed = 21
	rng := rand.New(rand.NewSource(seed))
	models := append(dnn.Benchmarks(), dnn.AlexNet(), dnn.MobileNetV2())
	accs := []Accelerator{SPACXAccel(), SPACXAccelNoBA(), SimbaAccel(), POPSTARAccel()}
	var rows []tableTest[Request, int]
	addRows := func(m dnn.Model, name string, acc Accelerator) {
		for _, mode := range []Mode{LayerByLayer, WholeInference} {
			for _, batch := range []int{1, 2 + rng.Intn(255)} {
				rows = append(rows, tableTest[Request, int]{
					Name: fmt.Sprintf("%s/%s/%s/b%d", m.Name, name, mode, batch),
					Got:  Request{Accel: acc, Model: m, Mode: mode, Batch: batch},
					Want: len(m.Layers),
				})
			}
		}
	}
	for _, m := range models {
		for _, acc := range accs {
			addRows(m, acc.Name(), acc)
		}
	}
	// OS(e/f) on the SPACX architecture draws its batches after the rows
	// above, so those keep theirs.
	osef := SPACXArchWithDataflow(dataflow.OSEF{})
	for _, m := range models {
		addRows(m, "SPACX-OSEF", osef)
	}
	badLayer := dnn.AlexNet()
	badLayer.Layers = append([]dnn.Layer(nil), badLayer.Layers...)
	badLayer.Layers[3].Stride = 0
	badDim := dnn.AlexNet()
	badDim.Layers = append([]dnn.Layer(nil), badDim.Layers...)
	badDim.Layers[2].K = 0
	noBuf := SPACXAccel()
	noBuf.Arch.PEBufBytes = 0
	rows = append(rows,
		tableTest[Request, int]{Name: "negative batch",
			Got: Request{Accel: SPACXAccel(), Model: dnn.AlexNet(), Mode: WholeInference, Batch: -1},
			Err: errors.New("sim: batch must be >= 1, got -1")},
		tableTest[Request, int]{Name: "invalid layer",
			Got: Request{Accel: SPACXAccel(), Model: badLayer, Mode: WholeInference},
			Err: fmt.Errorf(`model "AlexNet": dnn: layer %q has non-positive stride`, badLayer.Layers[3].Name)},
		tableTest[Request, int]{Name: "non-positive dimension",
			Got: Request{Accel: SPACXAccel(), Model: badDim, Mode: WholeInference},
			Err: errors.New(`model "AlexNet": dnn: layer "conv3" has non-positive dimension: conv3 conv 13x13 3x3 C256 K0 s1 -> 13x13 x1`)},
		tableTest[Request, int]{Name: "layer fails to map",
			Got: Request{Accel: noBuf, Model: dnn.AlexNet(), Mode: WholeInference},
			Err: errors.New("sim: mapping conv1 on SPACX")},
	)

	for _, tc := range rows {
		t.Run(tc.Name, func(t *testing.T) {
			if tc.Skip {
				t.Skip()
			}
			run, runErr := tc.Got.Run(nil)
			tot, totErr := tc.Got.Totals(nil)
			if tc.Err != nil {
				if runErr == nil || totErr == nil {
					t.Fatalf("Run error %v, Totals error %v; want both to fail", runErr, totErr)
				}
				if runErr.Error() != totErr.Error() || !strings.HasPrefix(runErr.Error(), tc.Err.Error()) {
					t.Fatalf("Run error %q, Totals error %q; want both %q", runErr, totErr, tc.Err)
				}
				return
			}
			if runErr != nil || totErr != nil {
				t.Fatalf("Run error %v, Totals error %v (seed %d)", runErr, totErr, seed)
			}
			if tot.Layers != nil {
				t.Fatalf("Totals kept %d per-layer results", len(tot.Layers))
			}
			if len(run.Layers) != tc.Want {
				t.Fatalf("Run kept %d per-layer results, want %d", len(run.Layers), tc.Want)
			}
			if tot.Model != run.Model || tot.Accel != run.Accel || !slices.Equal(totalsBits(tot), totalsBits(run)) {
				t.Fatalf("Totals differ from Run (seed %d):\n%+v\nvs\n%+v", seed, tot, run)
			}
			var dram int64
			for _, lr := range run.Layers {
				dram += lr.DRAMBytes * int64(lr.Layer.Repeat)
			}
			if run.DRAMBytes != dram {
				t.Fatalf("DRAMBytes = %d, per-layer sum %d", run.DRAMBytes, dram)
			}
		})
	}
}
