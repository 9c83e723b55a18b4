//go:build !race

// The race detector makes sync.Pool drop a random quarter of what it is
// given, so under -race the flow and float slabs allocate a fresh block on
// many refills and bytes per call turn into noise; the test needs the pools
// as they run in production.

package sim

import (
	"runtime"
	"testing"

	"spacx/internal/dnn"
)

// TestTotalsBytesDoNotGrowWithLayers pins Request.Totals' one reused slot:
// its mapping's flows and transfer times are refilled in place, so the bytes
// a call allocates do not grow with the model's layer count. EfficientNet-B7
// has 164 layers to AlexNet's 8; on Simba the WS mapper emits both 3- and
// 4-flow mappings, so the slot is outgrown at least once per call.
func TestTotalsBytesDoNotGrowWithLayers(t *testing.T) {
	perCall := func(m dnn.Model) float64 {
		req := Request{Accel: SimbaAccel(), Model: m, Mode: WholeInference}
		if _, err := req.Totals(nil); err != nil { // warm the slabs
			t.Fatal(err)
		}
		const calls = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if _, err := req.Totals(nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / calls
	}
	small, large := perCall(dnn.AlexNet()), perCall(dnn.EfficientNetB7())
	// The slack covers a slab block landing in one run and not the other.
	const slack = 256
	if large > small+slack {
		t.Fatalf("Totals allocates %.0f B/call on EfficientNet-B7 and %.0f B/call on AlexNet; want within %d B",
			large, small, slack)
	}
}
