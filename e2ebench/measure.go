package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// phase measures the timed phase of a run: wall time, process CPU time
// (getrusage user+sys, GC included), the Go allocator's counters, and the
// live heap sampled throughout.
type phase struct {
	start time.Time
	cpu   float64
	mem   runtime.MemStats
	live  []float64
	stop  chan struct{}
	done  chan struct{}
}

// liveSampleEvery is how often the phase samples the live heap.
const liveSampleEvery = 50 * time.Millisecond

func beginPhase() *phase {
	p := &phase{cpu: cpuSeconds(), stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&p.mem)
	p.start = time.Now()
	go p.sampleLive()
	return p
}

// sampleLive records the live heap as of the last completed GC cycle
// (/gc/heap/live:bytes) until the phase ends. It forces no collection.
func (p *phase) sampleLive() {
	defer close(p.done)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(liveSampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			metrics.Read(s)
			p.live = append(p.live, float64(s[0].Value.Uint64())/1e6)
		}
	}
}

// phaseStats is what a finished phase measured.
type phaseStats struct {
	wallSec, cpuSec float64
	allocMB         float64 // bytes allocated during the phase, 10^6 bytes
	gcCycles        float64
	heapMB          float64 // mean live heap over the phase, 10^6 bytes
	heapSamples     int
}

// end closes the phase.
func (p *phase) end() phaseStats {
	wall := time.Since(p.start).Seconds()
	cpu := cpuSeconds() - p.cpu
	close(p.stop)
	<-p.done
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return phaseStats{
		wallSec:     wall,
		cpuSec:      cpu,
		allocMB:     float64(m.TotalAlloc-p.mem.TotalAlloc) / 1e6,
		gcCycles:    float64(m.NumGC - p.mem.NumGC),
		heapMB:      mean(p.live),
		heapSamples: len(p.live),
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// quantile is the q-quantile of sorted by linear interpolation between the
// closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tail is the 99th percentile of v when at least ten samples lie beyond
// it. With fewer samples it is the highest percentile up to the 90th that
// still has ten beyond it: those runs time a few hundred identical ops,
// whose extreme tail is host noise (thermal's p96 moved by 40 % between
// runs on a shared host, its median by 20 %). q is the quantile used.
func tail(v []float64) (value, q float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q = 0.99
	if n := float64(len(s)); n*(1-q) < 10 {
		q = max(0.5, min(0.9, 1-10/n))
	}
	return quantile(s, q), q
}

// digests records, per output key, each distinct digest of the bytes ops
// produced and which ops produced it. Ops run in the timed phase and only
// record; the comparison against one reference per key runs afterwards.
type digests struct {
	mu sync.Mutex
	m  map[string]map[[32]byte][]int
}

func newDigests() *digests { return &digests{m: map[string]map[[32]byte][]int{}} }

func (d *digests) add(key string, op int, b []byte) {
	h := sha256.Sum256(b)
	d.mu.Lock()
	byDigest := d.m[key]
	if byDigest == nil {
		byDigest = map[[32]byte][]int{}
		d.m[key] = byDigest
	}
	byDigest[h] = append(byDigest[h], op)
	d.mu.Unlock()
}

// keys lists the recorded keys in sorted order.
func (d *digests) keys() []string {
	out := make([]string, 0, len(d.m))
	for k := range d.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// check compares every recorded output with ref(key), computing the
// references on workers goroutines, and returns the set of ops that
// produced a mismatching output plus one line per mismatching key.
func (d *digests) check(workers int, ref func(key string) ([]byte, error)) (map[int]bool, []string, error) {
	keys := d.keys()
	refs := make([][32]byte, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				b, err := ref(keys[i])
				refs[i], errs[i] = sha256.Sum256(b), err
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()

	failed := map[int]bool{}
	var lines []string
	for i, k := range keys {
		if errs[i] != nil {
			return nil, nil, fmt.Errorf("reference for %s: %w", k, errs[i])
		}
		for h, ops := range d.m[k] {
			if h == refs[i] {
				continue
			}
			for _, op := range ops {
				failed[op] = true
			}
			lines = append(lines, fmt.Sprintf("output mismatch: %s (%d ops)", k, len(ops)))
		}
	}
	sort.Strings(lines)
	return failed, lines, nil
}
