package sim

import (
	"context"
	"errors"
	"testing"

	"spacx/internal/dnn"
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
	_, err := r.Run(func(acc Accelerator, l dnn.Layer, mode Mode) (LayerResult, error) {
		if err := ctx.Err(); err != nil {
			return LayerResult{}, err
		}
		return RunLayer(acc, l, mode)
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
