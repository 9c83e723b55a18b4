package eventsim

import (
	"container/heap"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
)

// The tests in this file pin the performance contract of the arena rewrite:
// zero steady-state allocations per Run, a first Run whose allocations do not
// grow with the packet count, bit-identical Stats versus the preserved
// container/heap reference implementation, and the station naming convention
// the observability grouping depends on.

// benchNetworks builds each evaluation network on a fresh Sim and returns
// sources shaped like the Figure 16 load (four interleaved classes at
// moderate utilization).
func buildEvalNetwork(t testing.TB, kind string, s *Sim) func(int) []*Station {
	t.Helper()
	var (
		path func(int) []*Station
		err  error
	)
	switch kind {
	case "simba":
		path, err = BuildSimba(s, SimbaSpec{
			M: 6, N: 6, GBPorts: 2,
			ChipletRateBps: 320e9 / 8, PERateBps: 20e9 / 8,
			PackageHops: 5, ChipletHops: 4, PerHopDelaySec: 3.1e-9,
		})
	case "popstar":
		path, err = BuildCrossbar(s, CrossbarSpec{
			M: 6, N: 6, GBBundles: 4,
			ChipletRateBps: 310e9 / 8, PERateBps: 20e9 / 8,
			CrossbarDelay: 0.5e-9, ChipletHops: 4, PerHopDelaySec: 3.1e-9,
		})
	case "spacx":
		path, err = BuildSPACX(s, SPACXSpec{
			Channels: 192, ChannelRateBps: 10e9 / 8, HopDelaySec: 0.5e-9,
		})
	default:
		t.Fatalf("unknown network kind %q", kind)
	}
	if err != nil {
		t.Fatalf("build %s: %v", kind, err)
	}
	return path
}

func evalSources(path func(int) []*Station, packets int, fanout int) []Source {
	classes := []struct {
		name string
		rate float64
	}{
		{"weights", 9e9}, {"ifmaps", 4e9}, {"outputs", 2.5e9}, {"psums", 1.5e9},
	}
	var sources []Source
	for ci, c := range classes {
		offset := ci * 7919
		sources = append(sources, Source{
			Name: c.name, PacketBytes: 64, RateBytesSec: c.rate,
			Count:  packets / len(classes),
			Path:   func(i int) []*Station { return path(i + offset) },
			Fanout: fanout,
		})
	}
	return sources
}

// TestRunSteadyStateAllocs asserts the acceptance criterion of the arena
// rewrite: once a Sim has been warmed (arena and event queue grown to the
// working-set size), repeated Run calls allocate nothing.
func TestRunSteadyStateAllocs(t *testing.T) {
	for _, kind := range []string{"simba", "popstar", "spacx"} {
		t.Run(kind, func(t *testing.T) {
			s := New(7)
			path := buildEvalNetwork(t, kind, s)
			sources := evalSources(path, 2000, 1)
			if _, err := s.Run(sources); err != nil { // warm-up
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(5, func() {
				s.Reseed(7)
				if _, err := s.Run(sources); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("steady-state Run allocated %.1f objects per run, want 0", avg)
			}
		})
	}
}

// TestFirstRunAllocsIndependentOfPackets asserts that Run sizes its packet
// arena and event queue once, from the sources' packet count: the first Run
// on a newly built Sim makes as many allocations at 20 000 packets as at
// 2 000, where growing them by append would add a reallocation at every
// growth step.
func TestFirstRunAllocsIndependentOfPackets(t *testing.T) {
	for _, kind := range []string{"simba", "popstar", "spacx"} {
		t.Run(kind, func(t *testing.T) {
			small, large := firstRunAllocs(t, kind, 2000), firstRunAllocs(t, kind, 20000)
			if small != large {
				t.Errorf("first Run allocated %d objects at 2000 packets and %d at 20000, want equal",
					small, large)
			}
		})
	}
}

// firstRunAllocs counts the heap objects allocated by the first Run on a
// newly built Sim. Mallocs is process-wide, so anything else allocating
// during the run (a GC cycle starting, a test-runner goroutine) adds to the
// count: the collector is off while counting, and the count is the fewest
// over three Sims.
func firstRunAllocs(t *testing.T, kind string, packets int) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fewest := uint64(math.MaxUint64)
	for range 3 {
		s := New(7)
		sources := evalSources(buildEvalNetwork(t, kind, s), packets, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.Run(sources); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// TestDifferentialReference runs the optimized event loop and the preserved
// container/heap implementation on identically configured, identically
// seeded simulators and requires bit-identical Stats. Equal event times are
// common under this load, so any deviation in heap tie ordering shows up
// here as a differing TotalLatencySec. 20 000 packets is spacx-report's
// default -fig16-packets.
func TestDifferentialReference(t *testing.T) {
	for _, kind := range []string{"simba", "popstar", "spacx"} {
		for _, packets := range []int{3000, 20000} {
			for _, seed := range []uint64{1, 42, 0xC0FFEE, 0xDEADBEEF} {
				fanout := 1
				if kind == "spacx" {
					fanout = 12
				}

				opt := New(seed)
				optPath := buildEvalNetwork(t, kind, opt)
				got, err := opt.Run(evalSources(optPath, packets, fanout))
				if err != nil {
					t.Fatal(err)
				}

				ref := New(seed)
				refPath := buildEvalNetwork(t, kind, ref)
				want, err := referenceRun(ref, evalSources(refPath, packets, fanout))
				if err != nil {
					t.Fatal(err)
				}

				if got != want {
					t.Errorf("%s packets=%d seed=%#x: optimized Stats %+v != reference %+v",
						kind, packets, seed, got, want)
				}
			}
		}
	}
}

// TestEventHeapMatchesContainerHeap drives the packed event heap and
// container/heap through the same random interleaving of pushes and pops,
// with times drawn from four values so most comparisons are ties, and
// requires both to pop the same packets in the same order. The event-loop
// comparison above reaches only the ties its load happens to produce.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	r := newRNG(3)
	pkts := make([]refPacket, 5000)
	var h eventHeap
	h.reset(len(pkts))
	var ref refHeap
	next := 0
	for next < len(pkts) || h.len() > 0 {
		if next < len(pkts) && (h.len() == 0 || r.next()%3 != 0) {
			at := float64(r.next() % 4)
			h.push(at, int32(next))
			heap.Push(&ref, refEvent{time: at, pkt: &pkts[next]})
			next++
			continue
		}
		at, pkt := h.pop()
		want := heap.Pop(&ref).(refEvent)
		if at != want.time || &pkts[pkt] != want.pkt {
			t.Fatalf("after %d pushes: popped packet %d at %v, container/heap popped another at %v",
				next, pkt, at, want.time)
		}
	}
}

// TestBuilderGroupNames pins the grouped station families of the three
// builders, guarding the naming convention stationGroup depends on (family
// names must not end in a digit; instances append a decimal index).
func TestBuilderGroupNames(t *testing.T) {
	want := map[string][]string{
		"simba":   {"simba/chiplet", "simba/gb", "simba/pe"},
		"popstar": {"popstar/chiplet", "popstar/gb", "popstar/pe"},
		"spacx":   {"spacx/lambda"},
	}
	for kind, families := range want {
		s := New(1)
		buildEvalNetwork(t, kind, s)
		got := map[string]bool{}
		for name := range s.stations {
			g := stationGroup(name)
			got[g] = true
			if g == "" {
				t.Errorf("%s: station %q grouped to empty family", kind, name)
			}
		}
		for _, f := range families {
			if !got[f] {
				t.Errorf("%s: missing station family %q (have %v)", kind, f, got)
			}
			delete(got, f)
		}
		for g := range got {
			t.Errorf("%s: unexpected station family %q", kind, g)
		}
	}
}

// BenchmarkRun measures the warmed event loop per network; allocs/op should
// be zero on every variant.
func BenchmarkRun(b *testing.B) {
	for _, kind := range []string{"simba", "popstar", "spacx"} {
		b.Run(kind, func(b *testing.B) {
			s := New(7)
			path := buildEvalNetwork(b, kind, s)
			sources := evalSources(path, 5000, 1)
			if _, err := s.Run(sources); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reseed(7)
				if _, err := s.Run(sources); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerSelection justifies serverSelectCrossover: it drives one
// multi-lane station through admit at each lane count with both selection
// strategies. The linear scan wins at small lane counts, the heap at large
// ones; the crossover constant is where they trade places on the benchmark
// host.
func BenchmarkServerSelection(b *testing.B) {
	for _, lanes := range []int{4, 8, 16, 32, 64, 192} {
		for _, mode := range []string{"linear", "heap"} {
			b.Run(mode+"/"+itoa(lanes), func(b *testing.B) {
				st, err := NewStation("bench/lanes", 1e9, lanes, 0)
				if err != nil {
					b.Fatal(err)
				}
				st.reset()
				st.heapServers = mode == "heap"
				b.ResetTimer()
				t := 0.0
				for i := 0; i < b.N; i++ {
					// Offered load saturates the lanes so selection
					// actually has contended candidates to compare.
					t += 64.0 / 1e9 / float64(lanes) * 0.9
					st.admit(t, 64)
				}
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
