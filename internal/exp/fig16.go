package exp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"

	"spacx/internal/dnn"
	"spacx/internal/eventsim"
	"spacx/internal/exp/engine"
	"spacx/internal/network"
	"spacx/internal/obs"
	"spacx/internal/sim"
)

// Fig16Row is one (model, accelerator) network measurement from the
// packet-level simulation: mean latency and delivered throughput, each
// normalized to Simba.
type Fig16Row struct {
	Model string
	Accel string

	MeanLatencySec float64
	ThroughputPps  float64

	LatencyNorm    float64
	ThroughputNorm float64
}

const fig16PacketBytes = 64

// fig16Load derives a per-class offered load from a model's traffic on an
// accelerator: the bytes each flow class moves (duplicates included for
// unicast networks) during the measured execution window.
type fig16Load struct {
	bytesPerClass [network.NumClasses]int64
	execSec       float64
	broadcast     bool
	// receptionsPerPacket is the mean chiplet-interface receptions each
	// transmitted packet produces: 1 on unicast networks (every duplicate
	// is its own transmission), the broadcast chiplet span on SPACX.
	// Throughput — "the average number of data packets received in a unit
	// time period" — counts receptions at the chiplet interfaces.
	receptionsPerPacket float64
}

func loadFor(acc sim.Accelerator, m dnn.Model) (fig16Load, error) {
	var out fig16Load
	caps := acc.Arch.Net.Caps()
	out.broadcast = caps.CrossChipletBroadcast || caps.SingleChipletBroadcast
	var injected, received int64
	for _, l := range m.Layers {
		r, err := layerCached(acc, l, sim.WholeInference)
		if err != nil {
			return fig16Load{}, err
		}
		out.execSec += r.ExecSec * float64(l.Repeat)
		// The layer memo keeps no mapping, so map the layer here for its
		// flows.
		p, err := acc.Flow.Map(l, acc.Arch)
		if err != nil {
			return fig16Load{}, err
		}
		for _, f := range p.Flows {
			ff := f.Normalize()
			b := ff.UniqueBytes * int64(l.Repeat)
			if out.broadcast {
				b *= int64(ff.TxCopies) // per-waveguide copies are packets
				received += b * int64(ff.ChipletSpan)
			} else {
				b *= int64(ff.DestPerDatum) // broadcast emulated by unicasts
				received += b
			}
			injected += b
			out.bytesPerClass[ff.Class] += b
		}
	}
	out.receptionsPerPacket = 1
	if injected > 0 {
		out.receptionsPerPacket = float64(received) / float64(injected)
	}
	return out, nil
}

// builtSim is a constructed event simulator plus its path chooser, and the
// simList key it was built for.
type builtSim struct {
	s    *eventsim.Sim
	path func(int) []*eventsim.Station
	key  string
}

// simList is a free list of built simulators, keyed by accelerator name and
// M×N, that lives for one Fig16 call. A run takes a simulator for its
// accelerator, or builds one, and returns it when the run drains, so the
// call builds one simulator per accelerator per point running at the same
// time (exactly one per accelerator at -j 1), and the other models reuse its
// stations and packet arena. Sim.Run resets every station and buffer it
// touches; the RNG is the only state that survives a run, and
// packetRunUncached reseeds it, so a reused simulator behaves identically to
// a freshly built one.
type simList struct {
	mu   sync.Mutex
	free map[string][]*builtSim
}

func (l *simList) get(acc sim.Accelerator) (*builtSim, error) {
	key := acc.Name() + "/" + strconv.Itoa(acc.Arch.M) + "x" + strconv.Itoa(acc.Arch.N)
	l.mu.Lock()
	free := l.free[key]
	if n := len(free); n > 0 {
		// Take the simulator before unlocking: a put may reuse its slot.
		bs := free[n-1]
		l.free[key] = free[:n-1]
		l.mu.Unlock()
		return bs, nil
	}
	l.mu.Unlock()
	s := eventsim.New(0)
	path, err := buildNetwork(s, acc)
	if err != nil {
		return nil, err
	}
	return &builtSim{s: s, path: path, key: key}, nil
}

func (l *simList) put(bs *builtSim) {
	l.mu.Lock()
	if l.free == nil {
		l.free = map[string][]*builtSim{}
	}
	l.free[bs.key] = append(l.free[bs.key], bs)
	l.mu.Unlock()
}

// buildNetwork registers the accelerator's station pipeline (Table II
// parameters) on the event simulator and returns its path chooser.
func buildNetwork(s *eventsim.Sim, acc sim.Accelerator) (func(int) []*eventsim.Station, error) {
	switch acc.Name() {
	case "Simba":
		return eventsim.BuildSimba(s, eventsim.SimbaSpec{
			M: acc.Arch.M, N: acc.Arch.N, GBPorts: 2,
			ChipletRateBps: 320e9 / 8, PERateBps: 20e9 / 8,
			PackageHops: 5, ChipletHops: 4, PerHopDelaySec: 3.1e-9,
		})
	case "POPSTAR":
		return eventsim.BuildCrossbar(s, eventsim.CrossbarSpec{
			M: acc.Arch.M, N: acc.Arch.N, GBBundles: 4,
			ChipletRateBps: 310e9 / 8, PERateBps: 20e9 / 8,
			CrossbarDelay: 0.5e-9, ChipletHops: 4, PerHopDelaySec: 3.1e-9,
		})
	default: // SPACX
		// One channel per wavelength-waveguide pair: 24 wavelengths
		// on each of the 8 global waveguides of the default
		// (e/f=8, k=16) configuration.
		return eventsim.BuildSPACX(s, eventsim.SPACXSpec{
			Channels:       192,
			ChannelRateBps: 10e9 / 8,
			HopDelaySec:    0.5e-9,
		})
	}
}

// packetKey identifies one deterministic event-simulation run: the full
// accelerator configuration (geometry and network fingerprint — the station
// pipeline is a pure function of these), the model (name plus a hash of
// every layer field, since the injected traffic derives from the layers),
// and the packet budget and seed. Identical keys replay the identical event
// schedule and drain identical statistics.
type packetKey struct {
	arch     string
	net      string
	flow     string
	m, n     int
	vecWidth int
	clockHz  float64
	peBuf    int
	gb       int
	gef, gk  int
	model    string
	layers   uint64
	packets  int
	seed     uint64
}

func packetKeyFor(acc sim.Accelerator, m dnn.Model, packets int, seed uint64) (packetKey, bool) {
	fp, ok := network.FingerprintOf(acc.Arch.Net)
	if !ok {
		return packetKey{}, false
	}
	h := fnv.New64a()
	var b [8]byte
	word := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, l := range m.Layers {
		h.Write([]byte(l.Name))
		for _, v := range []int{
			int(l.Kind), l.R, l.S, l.C, l.K, l.H, l.W, l.E, l.F,
			l.Stride, l.Pad, l.Groups, l.Repeat, l.Batch,
		} {
			word(int64(v))
		}
	}
	return packetKey{
		arch: acc.Arch.Name, net: fp, flow: acc.Flow.Name(),
		m: acc.Arch.M, n: acc.Arch.N,
		vecWidth: acc.Arch.VectorWidth, clockHz: acc.Arch.ClockHz,
		peBuf: acc.Arch.PEBufBytes, gb: acc.Arch.GBBytes,
		gef: acc.Arch.GEF, gk: acc.Arch.GK,
		model: m.Name, layers: h.Sum64(),
		packets: packets, seed: seed,
	}, true
}

// packetCache memoizes drained event-simulation statistics. Stats is a flat
// value struct, so sharing it is invisible in the output; the dominant Fig16
// cost — millions of event-queue operations per (model, accelerator) point —
// is paid once per configuration instead of once per call.
var packetCache engine.Cache[packetKey, eventsim.Stats]

// packetRun is packetRunUncached memoized on the full run configuration;
// a run the memo misses takes its simulator from sims.
// Observed runs (rec enabled) execute uncached — the per-packet histograms
// and utilization gauges are a side effect the cache cannot replay — but
// still seed the cache for later unobserved callers.
func packetRun(sims *simList, acc sim.Accelerator, m dnn.Model, packets int, seed uint64, rec obs.Recorder) (eventsim.Stats, error) {
	if rec == nil {
		rec = obs.Nop()
	}
	k, ok := packetKeyFor(acc, m, packets, seed)
	if !ok {
		return packetRunUncached(sims, acc, m, packets, seed, rec)
	}
	if rec.Enabled() {
		stats, err := packetRunUncached(sims, acc, m, packets, seed, rec)
		if err == nil {
			packetCache.Put(k, stats, nil)
		}
		return stats, err
	}
	return packetCache.Do(k, func() (eventsim.Stats, error) {
		return packetRunUncached(sims, acc, m, packets, seed, rec)
	})
}

// packetRunUncached injects the model's own traffic volume over its own
// execution window through the accelerator's station pipeline and returns the
// drained statistics; rec observes per-packet latency and station utilization.
func packetRunUncached(sims *simList, acc sim.Accelerator, m dnn.Model, packets int, seed uint64, rec obs.Recorder) (eventsim.Stats, error) {
	load, err := loadFor(acc, m)
	if err != nil {
		return eventsim.Stats{}, err
	}
	var total int64
	for _, b := range load.bytesPerClass {
		total += b
	}

	bs, err := sims.get(acc)
	if err != nil {
		return eventsim.Stats{}, err
	}
	defer sims.put(bs)
	bs.s.Reseed(seed)
	bs.s.SetRecorder(rec)
	path := bs.path
	fanout := int(load.receptionsPerPacket + 0.5)
	if fanout < 1 {
		fanout = 1
	}
	// One source per traffic class, each at its own sustained rate;
	// classes interleave on the shared stations exactly as the
	// layer schedule mixes them.
	var sources []eventsim.Source
	for _, class := range []network.Class{
		network.Weights, network.Ifmaps, network.Outputs, network.Psums,
	} {
		bytes := load.bytesPerClass[class]
		if bytes <= 0 {
			continue
		}
		share := float64(bytes) / float64(total)
		count := int(share*float64(packets) + 0.5)
		if count == 0 {
			continue
		}
		offset := int(class) * 7919 // declusters class destinations
		sources = append(sources, eventsim.Source{
			Name:         fmt.Sprintf("%s/%s/%s", m.Name, acc.Name(), class),
			PacketBytes:  fig16PacketBytes,
			RateBytesSec: float64(bytes) / load.execSec,
			Count:        count,
			Path:         func(i int) []*eventsim.Station { return path(i + offset) },
			Fanout:       fanout,
		})
	}
	return bs.s.Run(sources)
}

// NetworkProbe runs the packet-level simulator once with the model's own
// traffic on the accelerator's network (the Figure 16 methodology for a
// single accelerator), populating packet-latency and queue-wait histograms
// plus station-utilization gauges through rec. The CLIs use it to include
// event-simulation data in a -metrics snapshot. A run the packet memo
// misses builds its own simulator, on a simList of its own.
func NetworkProbe(acc sim.Accelerator, m dnn.Model, packets int, rec obs.Recorder) (eventsim.Stats, error) {
	if packets <= 0 {
		packets = 20000
	}
	if rec == nil {
		rec = obs.Nop()
	}
	var stats eventsim.Stats
	err := point("network-probe", func() error {
		var err error
		stats, err = packetRun(&simList{}, acc, m, packets, 0xC0FFEE, rec)
		return err
	}, "model", m.Name, "accel", acc.Name(), "packets", packets)
	return stats, err
}

// Fig16 runs the packet-level latency/throughput study for the four DNN
// models on the three accelerators. Packet sources inject each accelerator's
// own traffic volume over its own execution window (a sampled fraction, to
// keep event counts tractable) through its station pipeline. Each of the
// twelve event simulations is independent (a freshly seeded eventsim.Sim,
// reused from this call's simList), so they run across the worker pool; the
// seeds depend only on the accelerator index, keeping every run identical
// at any worker count.
func Fig16(packetsPerRun int) ([]Fig16Row, error) {
	if packetsPerRun <= 0 {
		packetsPerRun = 20000
	}
	models := dnn.Benchmarks()
	accs := sim.EvalAccelerators()
	var sims simList
	results, err := mapPoints("fig16", len(models)*len(accs), func(i int) (eventsim.Stats, error) {
		m, ai := models[i/len(accs)], i%len(accs)
		acc := accs[ai]
		stats, err := packetRun(&sims, acc, m, packetsPerRun, 0xC0FFEE+uint64(ai), recorder)
		if err == nil {
			recorder.Logger().Info("fig16 point", "model", m.Name, "accel", acc.Name())
		}
		return stats, err
	})
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(accs))
	for _, acc := range accs {
		names = append(names, acc.Name())
	}
	return fig16Rows(models, names, results)
}

// fig16Rows folds the raw per-point stats into rows normalized to the first
// accelerator (Simba). A degenerate baseline — zero mean latency or zero
// throughput, as happens when packetsPerRun is too small for any packet to be
// delivered — would turn every norm into ±Inf or NaN and poison downstream
// golden files, so it is reported as an error instead.
func fig16Rows(models []dnn.Model, accels []string, results []eventsim.Stats) ([]Fig16Row, error) {
	rows := make([]Fig16Row, 0, len(models)*len(accels))
	for mi, m := range models {
		var baseLat, baseTp float64
		for ai, name := range accels {
			stats := results[mi*len(accels)+ai]
			row := Fig16Row{
				Model: m.Name, Accel: name,
				MeanLatencySec: stats.MeanLatency(),
				ThroughputPps:  stats.Throughput(),
			}
			if ai == 0 {
				baseLat, baseTp = row.MeanLatencySec, row.ThroughputPps
				if baseLat == 0 || baseTp == 0 {
					return nil, fmt.Errorf(
						"exp: fig16 %s: degenerate %s baseline (mean latency %g s, throughput %g pps); too few packets per run",
						m.Name, name, baseLat, baseTp)
				}
			}
			row.LatencyNorm = row.MeanLatencySec / baseLat
			row.ThroughputNorm = row.ThroughputPps / baseTp
			rows = append(rows, row)
		}
	}
	return rows, nil
}
