package exp

import (
	"testing"

	"spacx/internal/dnn"
	"spacx/internal/obs"
	"spacx/internal/photonic"
	"spacx/internal/sim"
)

func TestNetworkProbePopulatesEventsimMetrics(t *testing.T) {
	reg := obs.NewRegistry(nil)
	m := dnn.Model{Name: "tiny", Layers: []dnn.Layer{
		dnn.NewSameConv("a", 28, 3, 64, 64, 1),
	}}
	stats, err := NetworkProbe(sim.SPACXAccel(), m, 500, reg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Injected == 0 || stats.Delivered == 0 {
		t.Fatalf("probe moved no packets: %+v", stats)
	}
	if got := reg.HistogramCount("spacx_eventsim_packet_latency_seconds"); got == 0 {
		t.Error("packet latency histogram is empty")
	}
	if got := reg.Counter("spacx_eventsim_packets_injected_total"); got != float64(stats.Injected) {
		t.Errorf("injected counter = %v, want %v", got, stats.Injected)
	}
	snap := reg.Snapshot()
	foundUtil := false
	for _, g := range snap.Gauges {
		if g.Name == "spacx_eventsim_station_utilization_ratio" {
			foundUtil = true
			if g.Value < 0 || g.Value > 1 {
				t.Errorf("utilization out of range: %+v", g)
			}
		}
	}
	if !foundUtil {
		t.Error("no station utilization gauges recorded")
	}
}

func TestPowerSweepReportsProgress(t *testing.T) {
	reg := obs.NewRegistry(nil)
	SetRecorder(reg)
	defer SetRecorder(nil)
	pts, err := PowerSweep(8, 8, photonic.Moderate())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no power points")
	}
	perPoint := reg.Counter("spacx_exp_points_total", obs.Label{Key: "sweep", Value: "power-point"})
	if perPoint != float64(len(pts)) {
		t.Errorf("per-point counter = %v, want %d", perPoint, len(pts))
	}
	// Every grid point is timed individually into the sweep histogram.
	if got := reg.HistogramCount("spacx_exp_point_seconds", obs.Label{Key: "sweep", Value: "power"}); got != uint64(len(pts)) {
		t.Errorf("sweep duration histogram count = %d, want %d", got, len(pts))
	}
}

// TestDriversTimeEveryPoint checks the per-driver accounting a recorder
// keeps: every point a driver fans out, and a single-shot driver's one
// point, is counted and timed under the driver's sweep label.
func TestDriversTimeEveryPoint(t *testing.T) {
	reg := obs.NewRegistry(nil)
	SetRecorder(reg)
	defer SetRecorder(nil)

	pts, err := PowerSweep(8, 8, photonic.Moderate())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Table1(); err != nil {
		t.Fatal(err)
	}

	for _, want := range []struct {
		sweep  string
		points int
	}{{"power", len(pts)}, {"table1", 1}} {
		lbl := obs.Label{Key: "sweep", Value: want.sweep}
		if got := reg.Counter("spacx_exp_points_total", lbl); got != float64(want.points) {
			t.Errorf("%s points counter = %v, want %d", want.sweep, got, want.points)
		}
		if got := reg.HistogramCount("spacx_exp_point_seconds", lbl); got != uint64(want.points) {
			t.Errorf("%s point histogram count = %d, want %d", want.sweep, got, want.points)
		}
	}
}
