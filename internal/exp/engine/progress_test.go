package engine

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestProgressCountsAcrossWorkers(t *testing.T) {
	p := NewProgress()
	ph := p.Phase("sweep")
	n := 137
	if err := ForEachPhase(context.Background(), ph, 8, n, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := p.Status()
	if len(st.Phases) != 1 {
		t.Fatalf("phases = %d, want 1", len(st.Phases))
	}
	got := st.Phases[0]
	if got.Name != "sweep" || got.Total != int64(n) || got.Started != int64(n) || got.Done != int64(n) {
		t.Errorf("phase counts wrong: %+v", got)
	}
	if got.InFlight != 0 || got.Active {
		t.Errorf("finished phase should be quiescent: %+v", got)
	}
	if got.WallSec <= 0 {
		t.Errorf("wall time = %v, want > 0", got.WallSec)
	}
	if st.Total != int64(n) || st.Done != int64(n) {
		t.Errorf("totals wrong: %+v", st)
	}
}

func TestProgressPhaseIdentity(t *testing.T) {
	p := NewProgress()
	if p.Phase("a") != p.Phase("a") {
		t.Error("same name must return the same phase")
	}
	if p.Phase("a") == p.Phase("b") {
		t.Error("different names must return different phases")
	}
	// Two Begin/End spans on one phase accumulate totals and wall time.
	ph := p.Phase("a")
	for range [2]int{} {
		if err := ForEachPhase(context.Background(), ph, 2, 5, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Status().Phases[0]; st.Total != 10 || st.Done != 10 {
		t.Errorf("re-entered phase counts wrong: %+v", st)
	}
}

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	ph := p.Phase("x") // nil progress -> nil phase
	if ph != nil {
		t.Fatal("nil progress must hand out nil phases")
	}
	ph.Begin(3)
	ph.PointStart()
	ph.PointDone()
	ph.End()
	if st := p.Status(); st.Total != 0 || len(st.Phases) != 0 {
		t.Errorf("nil progress status not zero: %+v", st)
	}
	calls := 0
	if err := ForEachPhase(context.Background(), ph, 1, 3, func(int) error { calls++; return nil }); err != nil || calls != 3 {
		t.Errorf("ForEachPhase with nil phase: %d calls, err %v", calls, err)
	}
}

func TestProgressRateAndETA(t *testing.T) {
	fake := time.Unix(1000, 0)
	p := NewProgress()
	p.now = func() time.Time { return fake }
	ph := p.Phase("s")
	ph.Begin(10)
	for i := 0; i < 4; i++ {
		ph.PointStart()
		ph.PointDone()
	}
	fake = fake.Add(2 * time.Second)
	st := p.Status().Phases[0]
	if !st.Active {
		t.Error("phase with an open span must be active")
	}
	if st.RatePerSec != 2 { // 4 done / 2 s
		t.Errorf("rate = %v, want 2", st.RatePerSec)
	}
	if st.ETASec != 3 { // 6 remaining / 2 per sec
		t.Errorf("eta = %v, want 3", st.ETASec)
	}
	ph.End()
	if st := p.Status().Phases[0]; st.WallSec != 2 {
		t.Errorf("wall = %v, want 2", st.WallSec)
	}
}

func TestProgressStatusSerializes(t *testing.T) {
	p := NewProgress()
	if err := ForEachPhase(context.Background(), p.Phase("s"), 1, 2, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(p.Status())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"total":2`, `"done":2`, `"phases"`, `"eta_sec"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("status JSON missing %s: %s", want, b)
		}
	}
}

func TestProgressETAZeroRatePhase(t *testing.T) {
	// A phase with submitted work but zero completed points has no rate to
	// extrapolate: rate and ETA must stay 0 (finite and JSON-safe), not
	// NaN/Inf from a division by zero done-count or wall time.
	fake := time.Unix(1000, 0)
	p := NewProgress()
	p.now = func() time.Time { return fake }
	ph := p.Phase("stalled")
	ph.Begin(10)
	ph.PointStart() // in flight, nothing done
	fake = fake.Add(5 * time.Second)
	st := p.Status().Phases[0]
	if st.RatePerSec != 0 || st.ETASec != 0 {
		t.Fatalf("zero-done phase rate/eta = %v/%v, want 0/0", st.RatePerSec, st.ETASec)
	}
	if st.InFlight != 1 || st.Total != 10 {
		t.Fatalf("phase accounting = %+v", st)
	}
	b, err := json.Marshal(p.Status())
	if err != nil {
		t.Fatalf("zero-rate status must serialize: %v", err)
	}
	if strings.Contains(string(b), "null") {
		t.Fatalf("status JSON has nulls: %s", b)
	}

	// Zero wall time (phase just began) is equally guarded.
	p2 := NewProgress()
	p2.now = func() time.Time { return fake }
	ph2 := p2.Phase("instant")
	ph2.Begin(3)
	if st := p2.Status().Phases[0]; st.RatePerSec != 0 || st.ETASec != 0 {
		t.Fatalf("zero-wall phase rate/eta = %v/%v, want 0/0", st.RatePerSec, st.ETASec)
	}
}
