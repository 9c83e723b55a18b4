package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"spacx/internal/dnn"
	"spacx/internal/network"
)

// batchTestAccels is a mixed pool: three architectures, a GB-capacity ladder
// on SPACX (same cohort, gbUniform=false), and a zero-PE-buffer variant whose
// mapping fails deterministically.
func batchTestAccels() []Accelerator {
	small := SPACXAccel()
	small.Arch.GBBytes = 512 * 1024
	big := SPACXAccel()
	big.Arch.GBBytes = 64 << 20
	broken := SPACXAccel()
	broken.Arch.PEBufBytes = 0
	return []Accelerator{
		SPACXAccel(), SPACXAccelNoBA(), SimbaAccel(), POPSTARAccel(),
		small, big, broken,
	}
}

func batchTestLayers() []dnn.Layer {
	return []dnn.Layer{
		dnn.NewSameConv("conv3", 56, 64, 64, 3, 1),
		dnn.NewSameConv("conv1", 28, 128, 256, 1, 1),
		dnn.NewFC("fc", 2048, 1000),
		dnn.NewDepthwise("dw", 28, 128, 3, 1),
	}
}

func randomPoints(rng *rand.Rand, n int) []Point {
	accs, layers := batchTestAccels(), batchTestLayers()
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			Accel: accs[rng.Intn(len(accs))],
			Layer: layers[rng.Intn(len(layers))],
			Mode:  Mode(rng.Intn(2)),
		}
	}
	return pts
}

// scalarReference evaluates pts one by one through RunLayer with the batch
// kernel's error contract: every point runs, the lowest-index error wins,
// failed entries stay zero.
func scalarReference(pts []Point) ([]LayerResult, error) {
	out := make([]LayerResult, len(pts))
	var firstErr error
	for i, p := range pts {
		r, err := RunLayer(p.Accel, p.Layer, p.Mode)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out[i] = r
	}
	return out, firstErr
}

func diffBatch(t *testing.T, pts []Point) {
	t.Helper()
	got, gotErr := RunBatch(pts)
	want, wantErr := scalarReference(pts)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error mismatch: batch=%v scalar=%v", gotErr, wantErr)
	}
	if gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("error text mismatch:\nbatch:  %v\nscalar: %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("length mismatch: batch=%d scalar=%d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("point %d (%s on %s, %s): batch result differs\nbatch:  %+v\nscalar: %+v",
				i, pts[i].Layer.Name, pts[i].Accel.Name(), pts[i].Mode, got[i], want[i])
		}
	}
}

func TestRunBatchMatchesScalarRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(0xBA7C4))
	for trial := 0; trial < 50; trial++ {
		diffBatch(t, randomPoints(rng, 1+rng.Intn(80)))
	}
}

func TestRunBatchEdgeCases(t *testing.T) {
	if out, err := RunBatch(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: got %v, %v", out, err)
	}
	diffBatch(t, []Point{{Accel: SPACXAccel(), Layer: dnn.NewFC("fc", 64, 64), Mode: LayerByLayer}})
	// One cohort spanning the GB ladder and both modes: exercises the
	// non-uniform-GB energy path against per-point scalar runs.
	var pts []Point
	for _, gb := range []int{512 * 1024, 2 << 20, 64 << 20} {
		acc := SPACXAccel()
		acc.Arch.GBBytes = gb
		for _, m := range []Mode{LayerByLayer, WholeInference} {
			pts = append(pts, Point{Accel: acc, Layer: dnn.NewSameConv("c", 56, 64, 64, 3, 1), Mode: m})
		}
	}
	diffBatch(t, pts)
}

func TestRunBatchLowestIndexError(t *testing.T) {
	broken := SPACXAccel()
	broken.Arch.PEBufBytes = 0
	l := dnn.NewFC("fc", 64, 64)
	pts := []Point{
		{Accel: SPACXAccel(), Layer: l, Mode: LayerByLayer},
		{Accel: broken, Layer: l, Mode: LayerByLayer},
		{Accel: broken, Layer: dnn.NewFC("fc2", 32, 32), Mode: LayerByLayer},
		{Accel: SPACXAccel(), Layer: l, Mode: WholeInference},
	}
	got, err := RunBatch(pts)
	if err == nil {
		t.Fatal("expected mapping error")
	}
	_, wantErr := RunLayer(broken, l, LayerByLayer)
	if wantErr == nil || err.Error() != wantErr.Error() {
		t.Fatalf("want lowest-index error %v, got %v", wantErr, err)
	}
	if !reflect.DeepEqual(got[1], LayerResult{}) || !reflect.DeepEqual(got[2], LayerResult{}) {
		t.Fatalf("failed points must stay zero: %+v / %+v", got[1], got[2])
	}
	if got[0].ExecSec <= 0 || got[3].ExecSec <= 0 {
		t.Fatalf("healthy points must still evaluate: %+v / %+v", got[0], got[3])
	}
}

// noFPNet hides the network model's Fingerprint method, making its points
// uncohortable; RunBatch must route them through the scalar fallback.
type noFPNet struct{ network.Model }

func TestRunBatchScalarFallback(t *testing.T) {
	acc := SPACXAccel()
	acc.Arch.Net = noFPNet{acc.Arch.Net}
	if _, ok := (Point{Accel: acc}).CohortKey(); ok {
		t.Fatal("wrapped net must not fingerprint")
	}
	pts := []Point{
		{Accel: acc, Layer: dnn.NewFC("fc", 256, 128), Mode: LayerByLayer},
		{Accel: SPACXAccel(), Layer: dnn.NewFC("fc", 256, 128), Mode: LayerByLayer},
		{Accel: acc, Layer: dnn.NewFC("fc", 256, 128), Mode: WholeInference},
	}
	got, err := RunBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := scalarReference(pts)
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("fallback point %d differs", i)
		}
	}
}

// TestRunBatchSharedProfile pins the sharing contract: cohort members return
// the same Profile value and the same FlowSecs backing array.
func TestRunBatchSharedProfile(t *testing.T) {
	l := dnn.NewSameConv("c", 28, 64, 64, 3, 1)
	pts := []Point{
		{Accel: SPACXAccel(), Layer: l, Mode: LayerByLayer},
		{Accel: SPACXAccel(), Layer: l, Mode: WholeInference},
	}
	got, err := RunBatch(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0].FlowSecs) == 0 || &got[0].FlowSecs[0] != &got[1].FlowSecs[0] {
		t.Fatal("cohort members must share the FlowSecs slab carving")
	}
	if !reflect.DeepEqual(got[0].Profile, got[1].Profile) {
		t.Fatal("cohort members must share the mapping profile")
	}
}

func TestCohortKeyDeterministic(t *testing.T) {
	p := Point{Accel: SPACXAccel(), Layer: dnn.NewFC("fc", 64, 64), Mode: LayerByLayer}
	k1, ok1 := p.CohortKey()
	k2, ok2 := p.CohortKey()
	if !ok1 || !ok2 || k1 != k2 {
		t.Fatalf("CohortKey not deterministic: %q/%v vs %q/%v", k1, ok1, k2, ok2)
	}
	// Mode and GBBytes are deliberately excluded: they only steer the
	// per-point columnwise pass, not the hoisted mapping.
	q := p
	q.Mode = WholeInference
	q.Accel.Arch.GBBytes = 64 << 20
	if kq, _ := q.CohortKey(); kq != k1 {
		t.Fatalf("Mode/GBBytes must not split cohorts:\n%q\n%q", k1, kq)
	}
	r := p
	r.Accel.Arch.PEBufBytes++
	if kr, _ := r.CohortKey(); kr == k1 {
		t.Fatal("PEBufBytes must split cohorts")
	}
}
