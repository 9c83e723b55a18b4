package fabric

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over worker ids: each worker contributes
// `replicas` virtual nodes, and a key is owned by the first node clockwise
// from its hash. Routing sweep points by their cache key means a worker
// keeps seeing the same (network, model, mode, batch) neighborhoods sweep
// after sweep — its response LRU stays hot for its shard —
// while losing one worker only reassigns that worker's arc, not the whole
// space.
type ring struct {
	nodes []ringNode // sorted by hash, ties broken by id
}

type ringNode struct {
	hash uint64
	id   string
}

// newRing builds a ring over ids with the given virtual-node count per
// worker (<= 0 means 64). An empty id set yields an empty ring.
func newRing(ids []string, replicas int) *ring {
	if replicas <= 0 {
		replicas = 64
	}
	r := &ring{nodes: make([]ringNode, 0, len(ids)*replicas)}
	for _, id := range ids {
		for v := 0; v < replicas; v++ {
			r.nodes = append(r.nodes, ringNode{hash: hash64(id + "#" + strconv.Itoa(v)), id: id})
		}
	}
	sort.Slice(r.nodes, func(i, j int) bool {
		if r.nodes[i].hash != r.nodes[j].hash {
			return r.nodes[i].hash < r.nodes[j].hash
		}
		return r.nodes[i].id < r.nodes[j].id
	})
	return r
}

// owner returns the worker id owning key, or "" on an empty ring. The
// assignment is a pure function of the id set and the key, so every
// resharding decision is reproducible.
func (r *ring) owner(key string) string {
	if len(r.nodes) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].hash >= h })
	if i == len(r.nodes) {
		i = 0
	}
	return r.nodes[i].id
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	// FNV-1a positions of short, similar strings (worker ids differing in a
	// few hex digits) cluster badly enough that a worker can own almost none
	// of the ring; a splitmix64 finalizer spreads them uniformly.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
