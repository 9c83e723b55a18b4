// Tests of the public API surface: everything a downstream user touches
// must work through the root package alone.
package spacx_test

import (
	"strings"
	"testing"

	"spacx"
)

func TestPublicPresets(t *testing.T) {
	for _, acc := range []spacx.Accelerator{
		spacx.SPACX(), spacx.SPACXNoBA(), spacx.Simba(), spacx.POPSTAR(),
	} {
		if err := acc.Arch.Validate(); err != nil {
			t.Errorf("%s: %v", acc.Name(), err)
		}
	}
}

func TestPublicRun(t *testing.T) {
	res, err := spacx.Run(spacx.SPACX(), spacx.ResNet50(), spacx.WholeInference)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecSec <= 0 || res.TotalEnergy <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.Model != "ResNet-50" || res.Accel != "SPACX" {
		t.Errorf("labels wrong: %s %s", res.Model, res.Accel)
	}
	if len(res.Layers) != 21 {
		t.Errorf("layers = %d, want 21", len(res.Layers))
	}
}

func TestPublicRunLayer(t *testing.T) {
	l := spacx.VGG16().Layers[0]
	r, err := spacx.RunLayer(spacx.Simba(), l, spacx.LayerByLayer)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExecSec < r.ComputeSec {
		t.Error("exec below compute")
	}
}

func TestPublicModels(t *testing.T) {
	if len(spacx.Benchmarks()) != 4 {
		t.Error("expected 4 benchmark models")
	}
	m, err := spacx.ModelByName("densenet201")
	if err != nil || m.Name != "DenseNet-201" {
		t.Errorf("ModelByName: %v %v", m.Name, err)
	}
}

func TestPublicCustomAccelerator(t *testing.T) {
	acc, err := spacx.SPACXCustom(16, 16, 4, 8, spacx.AggressiveParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spacx.Run(acc, spacx.VGG16(), spacx.LayerByLayer)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecSec <= 0 {
		t.Error("no result")
	}
	if _, err := spacx.SPACXCustom(16, 16, 5, 8, spacx.ModerateParams(), true); err == nil {
		t.Error("invalid granularity should fail")
	}
}

func TestPublicPowerSurface(t *testing.T) {
	for _, tc := range []struct {
		name    string
		m, n    int
		wantErr string // empty for a valid machine
	}{
		{name: "16x16", m: 16, n: 16},
		{name: "zero chiplets", m: 0, n: 32, wantErr: "positive M, N"},
		{name: "negative PEs", m: 32, n: -1, wantErr: "positive M, N"},
		{name: "past the WDM bound", m: 64, n: 64, wantErr: "65 wavelengths exceed the 64 WDM bound"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pts, err := spacx.PowerSurface(tc.m, tc.n, spacx.ModerateParams())
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("PowerSurface(%d, %d) error = %v, want %q", tc.m, tc.n, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(pts) == 0 {
				t.Fatal("empty surface")
			}
			for _, p := range pts {
				if p.OverallW() <= 0 {
					t.Errorf("bad point %+v", p)
				}
			}
		})
	}
}

func TestPublicNetworkConfig(t *testing.T) {
	cfg, err := spacx.NewNetworkConfig(32, 32, 8, 16, spacx.ModerateParams())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Wavelengths() != 24 {
		t.Errorf("wavelengths = %d, want 24", cfg.Wavelengths())
	}
}

func TestPublicDataflows(t *testing.T) {
	names := map[string]bool{}
	for _, df := range []spacx.Dataflow{
		spacx.SPACXDataflow(), spacx.WeightStationary(), spacx.OutputStationaryEF(),
	} {
		names[df.Name()] = true
	}
	for _, want := range []string{"SPACX", "WS", "OS(e/f)"} {
		if !names[want] {
			t.Errorf("missing dataflow %q", want)
		}
	}
}

func TestPublicExploreAndExplain(t *testing.T) {
	l := spacx.ResNet50().Layers[2]
	pts, best, err := spacx.ExploreGranularity(l, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 || best < 0 || best >= len(pts) {
		t.Fatalf("bad explore result: %d points, best %d", len(pts), best)
	}
	acc := spacx.SPACX()
	r, err := spacx.RunLayer(acc, l, spacx.WholeInference)
	if err != nil {
		t.Fatal(err)
	}
	s := spacx.ExplainMapping(r, acc)
	if len(s) == 0 {
		t.Error("empty explanation")
	}
}
