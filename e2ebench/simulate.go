package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"
)

var (
	simModels = []string{"resnet50", "vgg16", "densenet201", "efficientnetb7", "alexnet", "mobilenetv2"}
	simAccels = []string{"spacx", "spacx-noba", "simba", "popstar"}
	simModes  = []string{"whole", "layer"}
)

const (
	// simKeys is model × accelerator × mode × batch 1–256: 12 288 distinct
	// requests against the service's 512-entry response LRU.
	simKeys  = 6 * 4 * 2 * 256
	simZipfS = 1.1
	// simWarmup is the untimed stream prefix of each set-up: enough to fill
	// the response LRU several times over.
	simWarmup  = 2000
	simSetups  = 5
	simClients = 2
	// simProbeReqs is how many distinct requests the traced run replays
	// through the sim and dataflow probes.
	simProbeReqs = 64
	// simTraceEvery: the traced run traces one request in this many, which
	// keeps its span file to a few MB; the other workloads trace every
	// second op.
	simTraceEvery = 4
)

func simKey(k int) simQuery {
	return simQuery{
		Model: simModels[k/(4*2*256)],
		Accel: simAccels[k/(2*256)%4],
		Mode:  simModes[k/256%2],
		Batch: k%256 + 1,
	}
}

// simStream is the seeded request stream: Zipf(s=1.1) ranks over a seeded
// permutation of the keys. Clients draw from it in turn, so the sequence of
// requests sent is a function of the seed alone.
type simStream struct {
	mu   sync.Mutex
	zipf *rand.Zipf
	perm []int
	n    int
}

// newSimStream deals the ranks round-robin over the 24 model × accelerator
// pairs, models first, and shuffles each pair's 512 mode × batch keys with
// the seed. A hit still rebuilds the request's model and accelerator, so
// the pair on the hottest ranks sets the hit latency; fixing the pairs per
// rank keeps that cost the same on every seed, while the seed still picks
// which mode and batch each rank carries.
func newSimStream(seed int64) *simStream {
	rng := rand.New(rand.NewSource(seed))
	const pairs = 6 * 4
	perm := make([]int, simKeys)
	for p := 0; p < pairs; p++ {
		model, accel := p%6, p/6
		for i, mb := range rng.Perm(2 * 256) {
			perm[i*pairs+p] = (model*4+accel)*512 + mb
		}
	}
	return &simStream{zipf: rand.NewZipf(rng, simZipfS, 1, simKeys-1), perm: perm}
}

// next draws the next request index and key, unless limit are drawn.
func (s *simStream) next(limit int) (i, key int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n >= limit {
		return 0, 0, false
	}
	i = s.n
	s.n++
	return i, s.perm[s.zipf.Uint64()], true
}

// simClient is one closed-loop caller's record.
type simClient struct {
	lat, tracedLat, hit, miss []float64
	attempted, failed         int
	bytes                     int64
	errs                      []string
	graftErr                  error
}

// simLoad drives one service with simClients closed-loop callers.
type simLoad struct {
	svc    *service
	stream *simStream
	bodies [][]byte
	out    *digests
	log    *spanLog
}

// run sends requests until the deadline or until limit requests of the
// stream have been drawn; set-up requests are recorded under op -1.
func (l *simLoad) run(until time.Time, limit int, setup bool) []*simClient {
	clients := make([]*simClient, simClients)
	var wg sync.WaitGroup
	for c := range clients {
		clients[c] = &simClient{}
		wg.Add(1)
		go func(sc *simClient) {
			defer wg.Done()
			for time.Now().Before(until) {
				i, k, ok := l.stream.next(limit)
				if !ok {
					return
				}
				l.send(sc, i, k, setup)
			}
		}(clients[c])
	}
	wg.Wait()
	return clients
}

func (l *simLoad) send(sc *simClient, i, k int, setup bool) {
	var t *opTrace
	if !setup && i%simTraceEvery == 1 {
		t = l.log.begin("op:simulate")
	}
	start := time.Now()
	resp, body, err := tracedCall(l.svc, t, "POST", "/v1/simulate", l.bodies[k])
	took := ms(time.Since(start))
	t.finish()
	if gerr := l.svc.graftTraces(t); gerr != nil && sc.graftErr == nil {
		sc.graftErr = gerr
	}
	op := i
	if setup {
		op = -1
	} else {
		sc.attempted++
	}
	if err != nil {
		sc.failed++
		if len(sc.errs) < 5 {
			sc.errs = append(sc.errs, err.Error())
		}
		return
	}
	l.out.add(strconv.Itoa(k), op, body)
	if setup {
		return
	}
	sc.bytes += int64(len(body))
	if t != nil {
		sc.tracedLat = append(sc.tracedLat, took)
	} else {
		sc.lat = append(sc.lat, took)
	}
	switch resp.Header.Get("X-Spacx-Cache") {
	case "hit":
		sc.hit = append(sc.hit, took)
	case "miss":
		sc.miss = append(sc.miss, took)
	}
}

// runSimulateWorkload: one op is one POST /v1/simulate from one of two
// closed-loop clients, drawn from the seeded Zipf stream. Set-up builds the
// service and sends the untimed warm-up prefix of the same stream; it is
// repeated on fresh services and the median reported.
func runSimulateWorkload(cfg config) (*outcome, error) {
	out := &outcome{opName: "request", layers: map[string]layerValue{}}
	bodies := make([][]byte, simKeys)
	for k := range bodies {
		b, err := json.Marshal(simKey(k))
		if err != nil {
			return nil, err
		}
		bodies[k] = b
	}
	d := newDigests()
	var load *simLoad
	for i := 0; i < simSetups; i++ {
		if load != nil {
			load.svc.Close()
		}
		runtime.GC()
		start := time.Now()
		svc, err := newService(64)
		if err != nil {
			return nil, err
		}
		load = &simLoad{svc: svc, stream: newSimStream(cfg.seed), bodies: bodies, out: d}
		for _, c := range load.run(time.Now().Add(time.Hour), simWarmup, true) {
			if c.failed > 0 {
				svc.Close()
				return nil, fmt.Errorf("warm-up request failed: %v", c.errs)
			}
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
	}
	svc := load.svc
	defer svc.Close()

	if cfg.trace {
		out.log = &spanLog{}
		load.log = out.log
	}
	before := svc.counters()
	ph := beginPhase()
	clients := load.run(ph.start.Add(time.Duration(cfg.seconds*float64(time.Second))), math.MaxInt, false)
	out.ph = ph.end()
	delta := svc.counters().sub(before)

	var hit, miss []float64
	var bytes int64
	for _, c := range clients {
		if c.graftErr != nil {
			return nil, c.graftErr
		}
		out.lat = append(out.lat, c.lat...)
		out.tracedLat = append(out.tracedLat, c.tracedLat...)
		out.attempted += c.attempted
		out.failed += c.failed
		for _, e := range c.errs {
			out.notes = append(out.notes, "request failed: "+e)
		}
		hit, miss = append(hit, c.hit...), append(miss, c.miss...)
		bytes += c.bytes
	}
	failed, lines, err := d.check(runtime.NumCPU(), func(key string) ([]byte, error) {
		k, err := strconv.Atoi(key)
		if err != nil {
			return nil, err
		}
		return simulateReference(simKey(k))
	})
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, lines...)
	out.addFailed(failed)
	out.notes = append(out.notes, fmt.Sprintf("%d distinct requests checked against a direct sim.Request.Run", len(d.keys())))
	if !cfg.trace {
		return out, nil
	}

	ops := len(out.lat) + len(out.tracedLat)
	out.layers["serve.hit_ratio"] = layerValue{float64(len(hit)) / float64(ops), fmt.Sprintf("X-Spacx-Cache hits of %d requests", ops)}
	out.layers["serve.hit_ms"] = layerValue{median(hit), fmt.Sprintf("median of %d hits", len(hit))}
	out.layers["serve.miss_ms"] = layerValue{median(miss), fmt.Sprintf("median of %d misses", len(miss))}
	serveLayers(out, delta, ops, bytes)

	// The probe replays the first distinct requests of the timed part of
	// the stream, one op each.
	st := newSimStream(cfg.seed)
	seen := map[int]bool{}
	var probe [][]simQuery
	for len(probe) < simProbeReqs {
		i, k, _ := st.next(math.MaxInt)
		if i >= simWarmup && !seen[k] {
			seen[k] = true
			probe = append(probe, []simQuery{simKey(k)})
		}
	}
	return out, simLayers(out, probe, "per replayed distinct request")
}

// simLayers runs the sim/dataflow probe three times over ops and fills the
// median of each measurement, per op.
func simLayers(out *outcome, ops [][]simQuery, per string) error {
	var runs []simTimes
	for i := 0; i < 3; i++ {
		st, err := simProbe(ops)
		if err != nil {
			return err
		}
		runs = append(runs, st)
	}
	n := float64(len(ops))
	pick := func(f func(simTimes) float64) float64 {
		v := make([]float64, len(runs))
		for i, r := range runs {
			v[i] = f(r)
		}
		return 1000 * median(v) / n
	}
	base := fmt.Sprintf("%s (%d ops, median of 3 probes)", per, len(ops))
	out.layers["sim.points"] = layerValue{float64(runs[0].points) / n, per + ": distinct layer points"}
	out.layers["sim.points_per_cohort"] = layerValue{float64(runs[0].points) / float64(runs[0].cohorts), "distinct points per mapping cohort"}
	out.layers["sim.run_layer_ms"] = layerValue{pick(func(s simTimes) float64 { return s.runLayer }), base + ": sim.RunLayer per point"}
	out.layers["sim.run_batch_ms"] = layerValue{pick(func(s simTimes) float64 { return s.runBatch }), base + ": sim.RunBatch, points sorted by cohort"}
	out.layers["sim.cohort_key_ms"] = layerValue{pick(func(s simTimes) float64 { return s.cohortKey }), base + ": Point.CohortKey per point"}
	out.layers["dataflow.map_ms"] = layerValue{pick(func(s simTimes) float64 { return s.mapped }), base + ": acc.Flow.Map per point"}
	out.layers["dataflow.flows_ms"] = layerValue{pick(func(s simTimes) float64 { return s.flows }), base + ": dataflow.MeasureFlows per point"}
	return nil
}
