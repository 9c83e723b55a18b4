package serve

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"

	"spacx/internal/obs"
	"spacx/internal/obs/tracing"
)

var soakModes = []string{"whole", "layer"}

// soakMix draws the soak's requests: half /v1/simulate over every catalog
// model × accelerator × mode, a fifth /v1/sweep over seeded grids of at
// most 8 points, and a tenth each short /v1/thermal replays, /v1/models and
// /v1/accelerators. Half the simulate and sweep draws take one of three hot
// batch sizes, so requests repeat, and half take any batch size a default
// service accepts, so the response LRU keeps evicting.
type soakMix struct {
	grids []string // sweep axes without batches: one or two models, accels and modes each
}

func newSoakMix(rng *rand.Rand) soakMix {
	pick := func(names []string) string {
		var b strings.Builder
		for i, k := range rng.Perm(len(names))[:1+rng.IntN(2)] {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%q", names[k])
		}
		return b.String()
	}
	var models, accels []string
	for _, me := range modelCatalog {
		models = append(models, me.Name)
	}
	for _, ae := range accelCatalog {
		accels = append(accels, ae.Name)
	}
	var m soakMix
	for range 12 {
		m.grids = append(m.grids, fmt.Sprintf(`"models": [%s], "accels": [%s], "modes": [%s]`,
			pick(models), pick(accels), pick(soakModes)))
	}
	return m
}

func soakBatch(rng *rand.Rand) int {
	if rng.IntN(2) == 0 {
		return []int{1, 4, 16}[rng.IntN(3)]
	}
	return 1 + rng.IntN(256)
}

func (m soakMix) draw(rng *rand.Rand) (method, path, body string) {
	switch w := rng.IntN(20); {
	case w < 10:
		return http.MethodPost, "/v1/simulate", fmt.Sprintf(`{"model": %q, "accel": %q, "mode": %q, "batch": %d}`,
			modelCatalog[rng.IntN(len(modelCatalog))].Name, accelCatalog[rng.IntN(len(accelCatalog))].Name,
			soakModes[rng.IntN(len(soakModes))], soakBatch(rng))
	case w < 14:
		return http.MethodPost, "/v1/sweep", fmt.Sprintf(`{%s, "batches": [%d]}`, m.grids[rng.IntN(len(m.grids))], soakBatch(rng))
	case w < 16:
		i := rng.IntN(6)
		return http.MethodPost, "/v1/thermal", fmt.Sprintf(`{"model": %q, "profile": %q, "seed": %d, "steps": %d}`,
			[]string{"alexnet", "mobilenetv2"}[i%2], []string{"step", "diurnal", "bursty"}[i/2], i, 20*(1+i%3))
	case w < 18:
		return http.MethodGet, "/v1/models", ""
	default:
		return http.MethodGet, "/v1/accelerators", ""
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSoakBoundedHeapAndStableBytes soaks one in-process service, wired as
// newService wires it, with a 32-entry response LRU and a 32-trace
// collector: four goroutines send a seeded soakMix of valid requests.
//
//   - Every repeat of a request must return the bytes of its first answer
//     (compared by SHA-256). About a thousand repeats miss the cache
//     because the LRU evicted their first answer, so this checks that a
//     recomputed answer is deterministic under the worker pool.
//   - The heap still reachable after a GC may grow by less than
//     soakHeapBound between the end of a 1,000-request warm-up (every
//     catalog entry built, the LRU and the collector full) and the end of
//     4,000 more requests. The first-answer table is sized for every
//     request before the warm-up and holds only digests, so recording an
//     answer adds nothing to the readings.
//
// Measured on a 2-vCPU VM over ten runs of this test alone, the growth read
// −2.3 to +14.9 KB with the micro-batching scheduler the worker pool
// replaced, and −6.8 to +38.2 KB with the pool. Each of three leaks tried
// on a copy of the service broke the bound: an LRU that never evicts
// (+1.4 MB), a collector that keeps every trace (+3.8 MB) and a
// singleflight table that keeps every finished flight (+1.6 MB).
func TestSoakBoundedHeapAndStableBytes(t *testing.T) {
	const (
		goroutines    = 4
		warmup        = 1000 // requests before the first reading
		soak          = 4000 // requests between the two readings
		soakHeapBound = 512 << 10
		seed          = 31
	)
	reg := obs.NewRegistry(nil)
	s := New(Options{CacheEntries: 32, Recorder: reg, Traces: tracing.NewCollector(32, reg)})
	s.Start(context.Background())
	t.Cleanup(s.Close)
	mux := http.NewServeMux()
	s.Routes(mux)

	mix := newSoakMix(rand.New(rand.NewPCG(seed, 0)))
	var (
		mu sync.Mutex
		// first maps a request's digest to its first answer's digest.
		first      = make(map[[sha256.Size]byte][sha256.Size]byte, warmup+soak)
		recomputed int // repeats answered by a fresh simulation
	)
	// send answers one request and checks it against the request's first
	// answer, recording that answer the first time.
	send := func(method, path, body string) error {
		rr := doReq(mux, method, path, body)
		if rr.Code != http.StatusOK {
			return fmt.Errorf("%s %s %s: status %d: %s", method, path, body, rr.Code, rr.Body)
		}
		if path == "/v1/sweep" && strings.Contains(rr.Body.String(), `"error"`) {
			return fmt.Errorf("sweep point failed: %s", rr.Body)
		}
		req, sum := sha256.Sum256([]byte(method+" "+path+" "+body)), sha256.Sum256(rr.Body.Bytes())
		mu.Lock()
		defer mu.Unlock()
		want, seen := first[req]
		switch {
		case !seen:
			first[req] = sum
		case want != sum:
			return fmt.Errorf("%s %s %s: answer differs from its first answer", method, path, body)
		case rr.Header().Get("X-Spacx-Cache") == "miss":
			recomputed++
		}
		return nil
	}
	// run sends n requests across the goroutines, each drawing from its own
	// seeded stream; round keeps the streams of the two phases apart.
	run := func(round uint64, n int) {
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for g := range goroutines {
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(seed, round*goroutines+uint64(g)+1))
				for range n / goroutines {
					if err := send(mix.draw(rng)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	run(1, warmup)
	warm := liveHeap()
	run(2, soak)
	end := liveHeap()
	// The first-answer table is live up to here; without this the garbage
	// collector may free it before the second reading and hide any growth.
	runtime.KeepAlive(first)
	if t.Failed() {
		return
	}
	growth := int64(end) - int64(warm)
	t.Logf("live heap %d B after warm-up, %d B after %d more requests: %+d B; %d repeats recomputed",
		warm, end, soak, growth, recomputed)
	if growth >= soakHeapBound {
		t.Fatalf("live heap grew by %d B over %d requests, bound %d B", growth, soak, soakHeapBound)
	}
	if recomputed == 0 {
		t.Fatal("no repeat missed the cache, so no answer was checked after recomputation")
	}
}
