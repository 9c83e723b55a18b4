// Package eventsim is a discrete-event packet-level network simulator used
// for the communication latency and throughput study of Figure 16. Packets
// traverse a pipeline of queueing stations (GB egress ports, package links,
// chiplet ingress channels, PE links, or photonic wavelength channels); each
// station serializes at its line rate with FIFO queueing, then forwards
// after a fixed propagation/conversion delay. Latency is the paper's
// definition — "the time elapsed between generating and receiving of a data
// packet" — and throughput is packets received per unit time.
//
// The hot loop is allocation-free: Run validates its sources and counts
// their packets first, then sizes the packet arena and the event queue to
// that count once, so neither grows while packets are injected. Packets live
// by value in the arena, the event queue is a binary min-heap packed as
// parallel time and packet-index arrays (see heap.go for why it mirrors
// container/heap's ordering exactly), and station scratch buffers are reused
// across runs. The first Run on a Sim allocates the same few objects at any
// packet count (TestFirstRunAllocsIndependentOfPackets), and reusing the Sim
// for repeated Run calls settles into zero allocations per run
// (TestRunSteadyStateAllocs).
package eventsim

import (
	"fmt"
	"math"
	"strings"

	"spacx/internal/obs"
)

// serverSelectCrossover is the lane count above which admit maintains the
// per-station freeAt slice as a binary min-heap (O(log S) selection) instead
// of scanning linearly (O(S)). See BenchmarkServerSelection: under saturating
// load the strategies are within noise of each other up to ~8 lanes, the heap
// pulls clearly ahead at 16 (~1.7x), and dominates from there (~9x at 192
// lanes). 16 keeps the branch-predictable scan on the small stations — where
// an unloaded heap gains nothing — and the O(log S) root fix-up on big ones.
const serverSelectCrossover = 16

// Station is one queueing service point.
type Station struct {
	Name         string
	RateBytesSec float64 // serialization rate
	Servers      int     // parallel service lanes (e.g. GB ports)
	DelaySec     float64 // fixed post-service delay (propagation, E/O+O/E)
	// QueueCap bounds how many packets may wait for a server; a packet
	// arriving at a full queue is dropped. Zero keeps the queue unbounded
	// (the default, and the Figure 16 configuration).
	QueueCap int

	// run state
	freeAt      []float64 // next-free time per server lane
	heapServers bool      // freeAt kept as a min-heap (Servers large)
	trackQueue  bool      // maintain the waiting heap (bounded queue or metrics)
	busySec     float64   // accumulated service time across servers
	waiting     []float64 // min-heap of service-start times of queued packets
	peakDepth   int       // deepest queue observed during the run
	dropped     int       // packets rejected by the full queue
}

// NewStation builds a validated station.
func NewStation(name string, rate float64, servers int, delay float64) (*Station, error) {
	if rate <= 0 || servers <= 0 || delay < 0 {
		return nil, fmt.Errorf("eventsim: bad station %q: rate=%v servers=%d delay=%v",
			name, rate, servers, delay)
	}
	return &Station{Name: name, RateBytesSec: rate, Servers: servers, DelaySec: delay}, nil
}

// reset clears the run state, reusing the freeAt and waiting buffers from
// the previous run when their capacity still fits.
func (s *Station) reset() {
	if cap(s.freeAt) < s.Servers {
		s.freeAt = make([]float64, s.Servers)
	} else {
		s.freeAt = s.freeAt[:s.Servers]
		for i := range s.freeAt {
			s.freeAt[i] = 0
		}
	}
	s.heapServers = s.Servers >= serverSelectCrossover
	s.trackQueue = s.QueueCap > 0
	s.busySec = 0
	s.waiting = s.waiting[:0]
	s.peakDepth = 0
	s.dropped = 0
}

// admit schedules service for a packet arriving at t; returns the departure
// time (service completion plus fixed delay) and the queueing wait the
// packet endured before a server freed up. ok is false when the packet hit a
// bounded queue that was already full, in which case the packet is dropped
// and the station state is untouched.
func (s *Station) admit(t float64, bytes int) (depart, wait float64, ok bool) {
	// The waiting heap exists for queue-depth accounting (drops, peak
	// depth, the observability gauges); with an unbounded queue and no
	// recorder attached nothing reads it, so the bookkeeping is skipped
	// entirely. Arrivals come off the global event heap in time order, so
	// every queued packet whose service started by t has left the queue —
	// draining lazily here keeps the depth identical to eager draining.
	if s.trackQueue {
		for len(s.waiting) > 0 && s.waiting[0] <= t {
			popMinFloat(&s.waiting)
		}
	}
	// Pick the earliest-free server lane. Lanes are interchangeable (only
	// the free time matters), so with many lanes the slice doubles as a
	// min-heap and selection is its root; with few, a linear scan is
	// cheaper than maintaining the invariant.
	best := 0
	if !s.heapServers {
		for i := 1; i < len(s.freeAt); i++ {
			if s.freeAt[i] < s.freeAt[best] {
				best = i
			}
		}
	}
	start := t
	if s.freeAt[best] > start {
		start = s.freeAt[best]
		if s.trackQueue {
			if s.QueueCap > 0 && len(s.waiting) >= s.QueueCap {
				s.dropped++
				return 0, 0, false
			}
			pushMinFloat(&s.waiting, start)
			if len(s.waiting) > s.peakDepth {
				s.peakDepth = len(s.waiting)
			}
		}
	}
	service := float64(bytes) / s.RateBytesSec
	done := start + service
	s.freeAt[best] = done
	if s.heapServers {
		siftDownMinFloat(s.freeAt, best)
	}
	s.busySec += service
	return done + s.DelaySec, start - t, true
}

// packet is one unit of traffic. fanout is the number of endpoint
// receptions one delivery produces (a photonic broadcast packet is
// serialized once but received by every destination on the wavelength).
// Packets are stored by value in the Sim's arena; events refer to them by
// index, so a run performs no per-packet allocation.
type packet struct {
	bytes      int
	injectTime float64
	path       []*Station
	fanout     int
	hop        int
}

// Stats summarizes a run. Delivered counts endpoint receptions (a broadcast
// packet counts once per destination); Injected counts transmissions;
// Dropped counts packets rejected by a full bounded queue (always zero with
// the default unbounded stations).
type Stats struct {
	Injected        int
	Delivered       int
	Dropped         int
	SimTimeSec      float64
	TotalLatencySec float64
	MaxLatencySec   float64

	latencySamples int
}

// Utilization reports each station's busy fraction over the run: busy time
// (bytes served / rate, summed over servers) divided by servers times the
// simulated span. Keyed by station name.
func (s *Sim) Utilization(span float64) map[string]float64 {
	out := make(map[string]float64, len(s.stations))
	if span <= 0 {
		return out
	}
	for name, st := range s.stations {
		out[name] = st.busySec / (float64(st.Servers) * span)
	}
	return out
}

// WithLatencySamples returns a copy with the latency sample count set.
// MeanLatency averages over this count; packages fabricating Stats fixtures
// (it is run-internal state, invisible to them otherwise) set it here.
func (s Stats) WithLatencySamples(n int) Stats {
	s.latencySamples = n
	return s
}

// MeanLatency is the average inject-to-receive latency (one sample per
// transmitted packet; broadcast receptions share the sample).
func (s Stats) MeanLatency() float64 {
	if s.latencySamples == 0 {
		return 0
	}
	return s.TotalLatencySec / float64(s.latencySamples)
}

// Throughput is delivered packets per second.
func (s Stats) Throughput() float64 {
	if s.SimTimeSec <= 0 {
		return 0
	}
	return float64(s.Delivered) / s.SimTimeSec
}

// rng is a small deterministic linear congruential generator (math/rand is
// stdlib, but a fixed LCG keeps runs bit-reproducible across Go versions).
type rng struct{ state uint64 }

func newRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return rng{state: seed}
}

func (r *rng) next() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.state
}

// float64n returns a uniform value in (0,1].
func (r *rng) float64n() float64 {
	return (float64(r.next()>>11) + 1) / (1 << 53)
}

// expovariate returns an exponential sample with the given mean.
func (r *rng) expovariate(mean float64) float64 {
	// -mean * ln(U); cheap log via math is fine.
	return -mean * logf(r.float64n())
}

// Sim drives packets through station pipelines. The packet arena and event
// queue are reused across Run calls, so a warmed Sim runs allocation-free.
type Sim struct {
	stations map[string]*Station
	events   eventHeap
	packets  []packet
	stats    Stats
	rng      rng
	rec      obs.Recorder
}

// New creates an empty simulator with a deterministic seed.
func New(seed uint64) *Sim {
	return &Sim{stations: map[string]*Station{}, rng: newRNG(seed), rec: obs.Nop()}
}

// Reseed restores the injection stream to the deterministic state New(seed)
// would produce, leaving stations and the warmed arenas in place. Callers
// that reuse a simulator across runs (the Figure 16 driver) use it to make a
// reused Sim bit-identical to a freshly built one: Run resets all other
// state, and the rng is the only carrier of history across runs.
func (s *Sim) Reseed(seed uint64) {
	s.rng = newRNG(seed)
}

// SetRecorder attaches an observability recorder: per-packet end-to-end
// latency and per-hop queue-wait histograms during Run, packet counters and
// station-utilization gauges at drain. A nil recorder restores the no-op.
func (s *Sim) SetRecorder(rec obs.Recorder) {
	if rec == nil {
		rec = obs.Nop()
	}
	s.rec = rec
}

// stationGroup collapses numbered station names into their family
// ("simba/pe12" -> "simba/pe") so utilization gauges stay at a readable
// cardinality on machines with thousands of PE stations. The builders
// follow the convention this relies on: a family name never ends in a
// digit, and instances append a decimal index ("family" + "12"). A family
// name that legitimately ended in digits (say "pe/x2") would be collapsed
// into its prefix, so builders must not produce one; TestBuilderGroupNames
// pins the grouped names of all three evaluation networks.
func stationGroup(name string) string {
	return strings.TrimRight(name, "0123456789")
}

// AddStation registers a station (or returns the existing one by name).
func (s *Sim) AddStation(st *Station) *Station {
	if existing, ok := s.stations[st.Name]; ok {
		return existing
	}
	st.reset()
	s.stations[st.Name] = st
	return st
}

// Source describes one traffic class to inject.
type Source struct {
	Name        string
	PacketBytes int
	// RateBytesSec is the offered load of this class.
	RateBytesSec float64
	// Count is how many packets to inject.
	Count int
	// Path chooses the station pipeline for the i-th packet of this source
	// (destination spreading is done by the caller via the index). The
	// returned slice is aliased, not copied — return interned paths (as the
	// Build* choosers do) to keep injection allocation-free.
	Path func(i int) []*Station
	// Fanout is the endpoint receptions per delivered packet (broadcast
	// width); zero means 1.
	Fanout int
}

// Run injects all sources (Poisson arrivals per class) and processes events
// until the network drains. It returns the aggregate statistics. Events name
// packets by int32 index, so the sources may inject at most math.MaxInt32
// packets in total.
func (s *Sim) Run(sources []Source) (Stats, error) {
	total := 0
	for _, src := range sources {
		if src.PacketBytes <= 0 || src.RateBytesSec <= 0 || src.Count < 0 || src.Path == nil {
			return Stats{}, fmt.Errorf("eventsim: bad source %q", src.Name)
		}
		if src.Count > math.MaxInt32-total {
			return Stats{}, fmt.Errorf("eventsim: sources inject more than %d packets", math.MaxInt32)
		}
		total += src.Count
	}
	// A packet never has more than one pending event, so the packet count
	// bounds the event queue as well as the arena.
	if cap(s.packets) < total {
		s.packets = make([]packet, 0, total)
	}
	s.packets = s.packets[:0]
	s.events.reset(total)
	s.stats = Stats{}
	enabled := s.rec.Enabled()
	for _, st := range s.stations {
		st.reset()
		// Queue-wait and depth gauges need the waiting heap even on
		// unbounded queues.
		st.trackQueue = st.trackQueue || enabled
	}
	for _, src := range sources {
		meanGap := float64(src.PacketBytes) / src.RateBytesSec
		fan := max(src.Fanout, 1)
		t := 0.0
		for i := 0; i < src.Count; i++ {
			t += s.rng.expovariate(meanGap)
			path := src.Path(i)
			if len(path) == 0 {
				return Stats{}, fmt.Errorf("eventsim: source %q produced empty path", src.Name)
			}
			s.events.push(t, int32(len(s.packets)))
			s.packets = append(s.packets, packet{
				bytes: src.PacketBytes, injectTime: t, path: path, fanout: fan,
			})
		}
	}
	s.stats.Injected = total

	for s.events.len() > 0 {
		now, pi := s.events.pop()
		p := &s.packets[pi]
		if p.hop == len(p.path) {
			// Delivered: one latency sample, fanout endpoint receptions.
			lat := now - p.injectTime
			s.stats.Delivered += p.fanout
			s.stats.latencySamples++
			s.stats.TotalLatencySec += lat
			if lat > s.stats.MaxLatencySec {
				s.stats.MaxLatencySec = lat
			}
			if now > s.stats.SimTimeSec {
				s.stats.SimTimeSec = now
			}
			if enabled {
				s.rec.Observe("spacx_eventsim_packet_latency_seconds", lat)
			}
			continue
		}
		st := p.path[p.hop]
		depart, wait, ok := st.admit(now, p.bytes)
		if !ok {
			s.stats.Dropped++
			continue
		}
		if enabled {
			s.rec.Observe("spacx_eventsim_queue_wait_seconds", wait,
				obs.Label{Key: "station", Value: stationGroup(st.Name)})
		}
		p.hop++
		s.events.push(depart, pi)
	}
	if enabled {
		s.recordRunStats()
	}
	return s.stats, nil
}

// recordRunStats publishes drain-time aggregates: packet counters (dropped
// included, so the series exists even at zero), the simulated span, peak
// queue depth per station family, and mean station utilization per family.
func (s *Sim) recordRunStats() {
	s.rec.Count("spacx_eventsim_packets_injected_total", float64(s.stats.Injected))
	s.rec.Count("spacx_eventsim_packets_delivered_total", float64(s.stats.Delivered))
	s.rec.Count("spacx_eventsim_packets_dropped_total", float64(s.stats.Dropped))
	s.rec.Gauge("spacx_eventsim_sim_seconds", s.stats.SimTimeSec)
	depths := map[string]int{}
	for name, st := range s.stations {
		g := stationGroup(name)
		if d, ok := depths[g]; !ok || st.peakDepth > d {
			depths[g] = st.peakDepth
		}
	}
	for g, d := range depths {
		s.rec.Gauge("spacx_eventsim_queue_depth_peak", float64(d),
			obs.Label{Key: "station", Value: g})
	}
	span := s.stats.SimTimeSec
	if span <= 0 {
		return
	}
	type groupAcc struct {
		busy    float64
		servers float64
	}
	groups := map[string]*groupAcc{}
	for name, st := range s.stations {
		g := stationGroup(name)
		acc, ok := groups[g]
		if !ok {
			acc = &groupAcc{}
			groups[g] = acc
		}
		acc.busy += st.busySec
		acc.servers += float64(st.Servers)
	}
	for g, acc := range groups {
		s.rec.Gauge("spacx_eventsim_station_utilization_ratio",
			acc.busy/(acc.servers*span), obs.Label{Key: "station", Value: g})
	}
}
