package exp

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"spacx/internal/dnn"
	"spacx/internal/eventsim"
	"spacx/internal/sim"
)

// statsWith fabricates drained Stats with the given mean latency and
// throughput (one delivered packet over span seconds).
func statsWith(meanLatSec, throughputPps float64) eventsim.Stats {
	var s eventsim.Stats
	if throughputPps > 0 {
		s.Delivered = 1000
		s.Injected = 1000
		s.SimTimeSec = 1000 / throughputPps
	}
	s.TotalLatencySec = meanLatSec * 1000
	return s.WithLatencySamples(1000)
}

func TestFig16RowsNormalization(t *testing.T) {
	models := []dnn.Model{{Name: "m1"}, {Name: "m2"}}
	accels := []string{"Simba", "POPSTAR"}
	results := []eventsim.Stats{
		statsWith(2e-8, 1e9), statsWith(1e-8, 2e9), // m1
		statsWith(4e-8, 1e9), statsWith(1e-8, 4e9), // m2
	}
	rows, err := fig16Rows(models, accels, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if rows[0].LatencyNorm != 1 || rows[0].ThroughputNorm != 1 {
		t.Errorf("baseline row not normalized to 1: %+v", rows[0])
	}
	if got := rows[1].LatencyNorm; got != 0.5 {
		t.Errorf("m1 POPSTAR latency norm = %v, want 0.5", got)
	}
	if got := rows[3].ThroughputNorm; got != 4 {
		t.Errorf("m2 POPSTAR throughput norm = %v, want 4", got)
	}
}

// TestFig16RowsDegenerateBaseline pins the divide-by-zero guard: a baseline
// run that delivered nothing (zero latency or zero throughput) must produce
// an error, not ±Inf/NaN norms that would poison golden files.
func TestFig16RowsDegenerateBaseline(t *testing.T) {
	models := []dnn.Model{{Name: "m1"}}
	accels := []string{"Simba", "POPSTAR"}
	for _, results := range [][]eventsim.Stats{
		{statsWith(0, 1e9), statsWith(1e-8, 2e9)},  // zero baseline latency
		{statsWith(2e-8, 0), statsWith(1e-8, 2e9)}, // zero baseline throughput
		{{}, statsWith(1e-8, 2e9)},                 // nothing delivered at all
	} {
		rows, err := fig16Rows(models, accels, results)
		if err == nil {
			t.Fatalf("degenerate baseline accepted: rows=%+v", rows)
		}
		if !strings.Contains(err.Error(), "degenerate") {
			t.Errorf("error should name the degenerate baseline, got: %v", err)
		}
	}
}

// TestSimListHandsOutEachSimulatorOnce takes and returns simulators on one
// simList from several goroutines at once, as Fig16's workers do: no
// simulator may be held by two of them at the same time.
func TestSimListHandsOutEachSimulatorOnce(t *testing.T) {
	var sims simList
	acc := sim.EvalAccelerators()[2] // SPACX: the cheapest network to build
	var held sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				bs, err := sims.get(acc)
				if err != nil {
					t.Error(err)
					return
				}
				if _, dup := held.LoadOrStore(bs, true); dup {
					t.Error("simulator handed to two goroutines at once")
				}
				runtime.Gosched()
				held.Delete(bs)
				sims.put(bs)
			}
		}()
	}
	wg.Wait()
}
