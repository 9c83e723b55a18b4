package eventsim

import (
	"math"
	"testing"
	"testing/quick"

	"spacx/internal/obs"
)

func TestStationValidation(t *testing.T) {
	if _, err := NewStation("x", 0, 1, 0); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := NewStation("x", 1e9, 0, 0); err == nil {
		t.Error("zero servers should fail")
	}
	if _, err := NewStation("x", 1e9, 1, -1); err == nil {
		t.Error("negative delay should fail")
	}
}

func TestSingleStationServiceTime(t *testing.T) {
	s := New(1)
	st, _ := NewStation("link", 1e9, 1, 10e-9) // 1 GB/s, 10 ns delay
	st = s.AddStation(st)
	stats, err := s.Run([]Source{{
		Name: "one", PacketBytes: 1000, RateBytesSec: 1, Count: 1,
		Path: func(int) []*Station { return []*Station{st} },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 1 || stats.Injected != 1 {
		t.Fatalf("delivered %d injected %d", stats.Delivered, stats.Injected)
	}
	// Unloaded latency = serialization 1 us + delay 10 ns.
	want := 1000/1e9 + 10e-9
	if math.Abs(stats.MeanLatency()-want) > 1e-12 {
		t.Errorf("latency = %v, want %v", stats.MeanLatency(), want)
	}
}

func TestConservation(t *testing.T) {
	// Property: injected == delivered for any packet count (no loss).
	f := func(n uint8, seed uint64) bool {
		s := New(seed)
		st, _ := NewStation("l", 1e9, 1, 0)
		st = s.AddStation(st)
		count := int(n)
		stats, err := s.Run([]Source{{
			Name: "src", PacketBytes: 64, RateBytesSec: 1e8, Count: count,
			Path: func(int) []*Station { return []*Station{st} },
		}})
		return err == nil && stats.Injected == count && stats.Delivered == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQueueingGrowsLatency(t *testing.T) {
	// Driving a 1 GB/s link at 50% vs 95% load: latency must rise.
	run := func(load float64) float64 {
		s := New(7)
		st, _ := NewStation("l", 1e9, 1, 0)
		st = s.AddStation(st)
		stats, err := s.Run([]Source{{
			Name: "src", PacketBytes: 64, RateBytesSec: load * 1e9, Count: 20000,
			Path: func(int) []*Station { return []*Station{st} },
		}})
		if err != nil {
			t.Fatal(err)
		}
		return stats.MeanLatency()
	}
	l50, l95 := run(0.5), run(0.95)
	if l95 <= l50 {
		t.Errorf("latency at 95%% load (%v) should exceed 50%% load (%v)", l95, l50)
	}
	// M/M/1-ish sanity: queueing at 95% should be several times the
	// service time (64 ns).
	if l95 < 3*64e-9 {
		t.Errorf("95%% load latency = %v, implausibly low", l95)
	}
}

func TestMultiServerFasterThanSingle(t *testing.T) {
	run := func(servers int) float64 {
		s := New(3)
		st, _ := NewStation("l", 1e9, servers, 0)
		st = s.AddStation(st)
		stats, err := s.Run([]Source{{
			Name: "src", PacketBytes: 64, RateBytesSec: 1.5e9, Count: 10000,
			Path: func(int) []*Station { return []*Station{st} },
		}})
		if err != nil {
			t.Fatal(err)
		}
		return stats.MeanLatency()
	}
	if run(4) >= run(1) {
		t.Error("adding servers should reduce latency under overload")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Stats {
		s := New(42)
		st, _ := NewStation("l", 1e9, 1, 0)
		st = s.AddStation(st)
		stats, err := s.Run([]Source{{
			Name: "src", PacketBytes: 64, RateBytesSec: 5e8, Count: 1000,
			Path: func(int) []*Station { return []*Station{st} },
		}})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed should reproduce identical stats: %+v vs %+v", a, b)
	}
}

func TestBadSources(t *testing.T) {
	one := func(int) []*Station {
		st, _ := NewStation("l", 1e9, 1, 0)
		return []*Station{st}
	}
	// huge is the path of the sources Run must reject before injecting
	// anything. It records a call and returns an empty path, so an
	// implementation that starts injecting stops at the first packet
	// instead of injecting billions.
	injected := false
	huge := func(int) []*Station {
		injected = true
		return nil
	}
	for _, tc := range []struct {
		name    string
		sources []Source
		// upFront: Run must fail before it sizes its arenas or injects.
		upFront bool
	}{
		{name: "zero packet size",
			sources: []Source{{Name: "x", PacketBytes: 0, RateBytesSec: 1, Count: 1, Path: one}}},
		{name: "empty path",
			sources: []Source{{Name: "x", PacketBytes: 64, RateBytesSec: 1, Count: 1,
				Path: func(int) []*Station { return nil }}}},
		{name: "nil path func",
			sources: []Source{{Name: "x", PacketBytes: 64, RateBytesSec: 1, Count: 1}}},
		// Events index packets by int32, so the total packet count is capped
		// at math.MaxInt32, and the sum must not wrap on the way there.
		{name: "one source past int32", upFront: true,
			sources: []Source{{Name: "x", PacketBytes: 64, RateBytesSec: 1, Count: math.MaxInt32 + 1, Path: huge}}},
		{name: "sum past int32", upFront: true,
			sources: []Source{
				{Name: "x", PacketBytes: 64, RateBytesSec: 1, Count: math.MaxInt32, Path: huge},
				{Name: "y", PacketBytes: 64, RateBytesSec: 1, Count: 1, Path: huge},
			}},
		{name: "sum past int", upFront: true,
			sources: []Source{
				{Name: "x", PacketBytes: 64, RateBytesSec: 1, Count: math.MaxInt32, Path: huge},
				{Name: "y", PacketBytes: 64, RateBytesSec: 1, Count: math.MaxInt, Path: huge},
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			injected = false
			s := New(1)
			if _, err := s.Run(tc.sources); err == nil {
				t.Fatal("Run accepted bad sources")
			}
			if tc.upFront && (injected || cap(s.packets) != 0 || cap(s.events.times) != 0) {
				t.Errorf("Run rejected the sources only after injecting (%v) or sizing its arenas (%d packets, %d events)",
					injected, cap(s.packets), cap(s.events.times))
			}
		})
	}
}

func TestPipelines(t *testing.T) {
	s := New(9)
	simbaPath, err := BuildSimba(s, SimbaSpec{
		M: 32, N: 32, GBPorts: 2, ChipletRateBps: 40e9, PERateBps: 2.5e9,
		PackageHops: 5, ChipletHops: 4, PerHopDelaySec: 3e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(simbaPath(0)); got != 3 {
		t.Errorf("simba path hops = %d, want 3", got)
	}
	// Distinct chiplets for distant PEs.
	if simbaPath(0)[1] == simbaPath(33)[1] {
		t.Error("PE 0 and PE 33 should be on different chiplets")
	}

	xbarPath, err := BuildCrossbar(s, CrossbarSpec{
		M: 32, N: 32, GBBundles: 4, ChipletRateBps: 38.75e9, PERateBps: 2.5e9,
		CrossbarDelay: 1e-9, ChipletHops: 4, PerHopDelaySec: 3e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(xbarPath(5)); got != 3 {
		t.Errorf("crossbar path hops = %d, want 3", got)
	}

	spacxPath, err := BuildSPACX(s, SPACXSpec{Channels: 24, ChannelRateBps: 1.25e9, HopDelaySec: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(spacxPath(0)); got != 1 {
		t.Errorf("SPACX path hops = %d, want 1 (one-hop property)", got)
	}

	// Negative indices must not panic.
	_ = simbaPath(-1)
	_ = spacxPath(-5)
}

func TestPipelineValidation(t *testing.T) {
	s := New(1)
	if _, err := BuildSimba(s, SimbaSpec{}); err == nil {
		t.Error("empty Simba spec should fail")
	}
	if _, err := BuildCrossbar(s, CrossbarSpec{}); err == nil {
		t.Error("empty crossbar spec should fail")
	}
	if _, err := BuildSPACX(s, SPACXSpec{}); err == nil {
		t.Error("empty SPACX spec should fail")
	}
}

func TestUnloadedLatencyOrdering(t *testing.T) {
	// At light load, SPACX (one hop, 10 Gbps channel) must beat Simba
	// (multi-hop, 20 Gbps final link but long pipeline) for 64 B packets —
	// Figure 16's qualitative point at the packet level.
	lat := func(build func(s *Sim) func(int) []*Station) float64 {
		s := New(11)
		path := build(s)
		stats, err := s.Run([]Source{{
			Name: "probe", PacketBytes: 64, RateBytesSec: 1e6, Count: 200,
			Path: func(i int) []*Station { return path(i) },
		}})
		if err != nil {
			t.Fatal(err)
		}
		return stats.MeanLatency()
	}
	simba := lat(func(s *Sim) func(int) []*Station {
		p, err := BuildSimba(s, SimbaSpec{M: 32, N: 32, GBPorts: 2,
			ChipletRateBps: 40e9, PERateBps: 2.5e9,
			PackageHops: 5, ChipletHops: 4, PerHopDelaySec: 3.1e-9})
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
	spacx := lat(func(s *Sim) func(int) []*Station {
		p, err := BuildSPACX(s, SPACXSpec{Channels: 24, ChannelRateBps: 1.25e9, HopDelaySec: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
	if spacx >= simba {
		t.Errorf("SPACX unloaded latency %v should be < Simba %v", spacx, simba)
	}
}

func TestUtilization(t *testing.T) {
	s := New(5)
	st, _ := NewStation("l", 1e9, 1, 0)
	st = s.AddStation(st)
	stats, err := s.Run([]Source{{
		Name: "src", PacketBytes: 1000, RateBytesSec: 5e8, Count: 2000,
		Path: func(int) []*Station { return []*Station{st} },
	}})
	if err != nil {
		t.Fatal(err)
	}
	util := s.Utilization(stats.SimTimeSec)
	u := util["l"]
	// Offered load is 50% of capacity; measured utilization should be close.
	if u < 0.35 || u > 0.7 {
		t.Errorf("utilization = %v, want ~0.5", u)
	}
	if len(s.Utilization(0)) != 0 {
		t.Error("zero span should return empty map")
	}
}

func TestBroadcastFanout(t *testing.T) {
	s := New(13)
	st, _ := NewStation("bcast", 1e9, 1, 0)
	st = s.AddStation(st)
	stats, err := s.Run([]Source{{
		Name: "b", PacketBytes: 64, RateBytesSec: 1e8, Count: 100, Fanout: 16,
		Path: func(int) []*Station { return []*Station{st} },
	}})
	if err != nil {
		t.Fatal(err)
	}
	// 100 transmissions, 1600 receptions.
	if stats.Injected != 100 {
		t.Errorf("injected = %d, want 100", stats.Injected)
	}
	if stats.Delivered != 1600 {
		t.Errorf("delivered = %d, want 1600 (16-way broadcast)", stats.Delivered)
	}
	// Latency is a per-transmission sample, unaffected by fanout.
	uni := New(13)
	st2, _ := NewStation("uni", 1e9, 1, 0)
	st2 = uni.AddStation(st2)
	us, _ := uni.Run([]Source{{
		Name: "u", PacketBytes: 64, RateBytesSec: 1e8, Count: 100,
		Path: func(int) []*Station { return []*Station{st2} },
	}})
	if stats.MeanLatency() != us.MeanLatency() {
		t.Errorf("fanout changed latency: %v vs %v", stats.MeanLatency(), us.MeanLatency())
	}
}

func TestRecorderObservesRun(t *testing.T) {
	reg := obs.NewRegistry(nil)
	s := New(1)
	s.SetRecorder(reg)
	st, err := NewStation("grp7", 1e9, 1, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	st = s.AddStation(st)
	stats, err := s.Run([]Source{{
		Name: "src", PacketBytes: 64, RateBytesSec: 1e8, Count: 100,
		Path: func(int) []*Station { return []*Station{st} },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.HistogramCount("spacx_eventsim_packet_latency_seconds"); got != 100 {
		t.Errorf("latency samples = %d, want 100", got)
	}
	if got := reg.HistogramCount("spacx_eventsim_queue_wait_seconds",
		obs.Label{Key: "station", Value: "grp"}); got != 100 {
		t.Errorf("queue-wait samples under trimmed station name = %d, want 100", got)
	}
	if got := reg.Counter("spacx_eventsim_packets_delivered_total"); got != float64(stats.Delivered) {
		t.Errorf("delivered counter = %v, want %d", got, stats.Delivered)
	}
	// Recorder must not change the simulation itself.
	s2 := New(1)
	st2, _ := NewStation("grp7", 1e9, 1, 1e-9)
	st2 = s2.AddStation(st2)
	plain, err := s2.Run([]Source{{
		Name: "src", PacketBytes: 64, RateBytesSec: 1e8, Count: 100,
		Path: func(int) []*Station { return []*Station{st2} },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if plain != stats {
		t.Errorf("recorder perturbed results: %+v vs %+v", stats, plain)
	}
}

func TestStationGroup(t *testing.T) {
	for in, want := range map[string]string{
		"simba/pe12":   "simba/pe",
		"spacx/lambda": "spacx/lambda",
		"popstar/gb":   "popstar/gb",
	} {
		if got := stationGroup(in); got != want {
			t.Errorf("stationGroup(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBoundedQueueDropsPackets(t *testing.T) {
	// A 1-deep queue on a link driven at 3x capacity must shed load;
	// every packet is either delivered or dropped, never both.
	s := New(21)
	st, _ := NewStation("tiny", 1e9, 1, 0)
	st.QueueCap = 1
	st = s.AddStation(st)
	stats, err := s.Run([]Source{{
		Name: "burst", PacketBytes: 1000, RateBytesSec: 3e9, Count: 5000,
		Path: func(int) []*Station { return []*Station{st} },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped == 0 {
		t.Fatal("overloading a 1-deep queue must drop packets")
	}
	if stats.Delivered+stats.Dropped != stats.Injected {
		t.Errorf("conservation broken: injected %d != delivered %d + dropped %d",
			stats.Injected, stats.Delivered, stats.Dropped)
	}

	// The same load on an unbounded queue loses nothing.
	s2 := New(21)
	st2, _ := NewStation("tiny", 1e9, 1, 0)
	st2 = s2.AddStation(st2)
	plain, err := s2.Run([]Source{{
		Name: "burst", PacketBytes: 1000, RateBytesSec: 3e9, Count: 5000,
		Path: func(int) []*Station { return []*Station{st2} },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Dropped != 0 || plain.Delivered != plain.Injected {
		t.Errorf("unbounded queue must not drop: %+v", plain)
	}
}

func TestDropAndQueueDepthSeries(t *testing.T) {
	// Run end must publish the dropped-packet counter (even at zero) and a
	// per-station-group peak queue depth gauge.
	run := func(cap int) (*obs.Registry, Stats) {
		reg := obs.NewRegistry(nil)
		s := New(31)
		s.SetRecorder(reg)
		st, _ := NewStation("grp7", 1e9, 1, 0)
		st.QueueCap = cap
		st = s.AddStation(st)
		stats, err := s.Run([]Source{{
			Name: "src", PacketBytes: 1000, RateBytesSec: 2e9, Count: 2000,
			Path: func(int) []*Station { return []*Station{st} },
		}})
		if err != nil {
			t.Fatal(err)
		}
		return reg, stats
	}

	reg, stats := run(2)
	if stats.Dropped == 0 {
		t.Fatal("expected drops at 2x load with a 2-deep queue")
	}
	if got := reg.Counter("spacx_eventsim_packets_dropped_total"); got != float64(stats.Dropped) {
		t.Errorf("dropped counter = %v, want %d", got, stats.Dropped)
	}
	foundDepth := false
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == "spacx_eventsim_queue_depth_peak" {
			foundDepth = true
			if g.Labels["station"] != "grp" {
				t.Errorf("queue depth gauge labeled %v, want trimmed group grp", g.Labels)
			}
			if g.Value <= 0 || g.Value > 2 {
				t.Errorf("peak depth = %v, want within the 2-deep bound", g.Value)
			}
		}
	}
	if !foundDepth {
		t.Error("no queue depth gauge recorded")
	}

	// Unbounded run: the dropped series still exists, at zero.
	reg0, stats0 := run(0)
	if stats0.Dropped != 0 {
		t.Fatalf("unbounded run dropped %d packets", stats0.Dropped)
	}
	if got := reg0.Counter("spacx_eventsim_packets_dropped_total"); got != 0 {
		t.Errorf("dropped counter = %v, want an explicit 0", got)
	}
	found := false
	for _, c := range reg0.Snapshot().Counters {
		if c.Name == "spacx_eventsim_packets_dropped_total" {
			found = true
		}
	}
	if !found {
		t.Error("dropped-total series must exist even when nothing was dropped")
	}
}
