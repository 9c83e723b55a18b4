package eventsim

import "math"

// The event queue is a binary min-heap on event time, stored as two parallel
// arrays: the times, and the packet index each time belongs to. Compared to
// the container/heap implementation it replaces, it removes the interface{}
// boxing on every Push/Pop — one heap allocation per event with the stdlib
// API — and the per-event pointer chase. Packing the two fields apart keeps
// the sift comparisons on a dense []float64, 8 bytes a slot instead of a
// padded 16-byte event struct. Run sizes both arrays once per call to the
// number of packets it injects, which bounds the heap because a packet never
// has more than one pending event; the arrays live on the Sim and are reused
// across runs, so the steady state allocates nothing.
//
// The sift routines deliberately mirror container/heap's up/down comparison
// sequence (strict-less child selection, >=-parent stop), and Run pushes
// events one at a time during injection exactly as the old code did. Equal
// event times are frequent in the Figure 16 networks (queued equal-size
// packets finish in lockstep), and a heap's pop order among ties depends on
// the array's full history — a different arity or construction order would
// reorder tied deliveries, perturbing latency sums by one ulp and breaking
// the byte-identity of the golden files. A 4-ary layout was measured and
// rejected for exactly that reason; pushing each source's arrivals lazily
// reorders ties too, so it waits for a change that regenerates the goldens.
// Floyd's bottom-up pop keeps the order but measured slower than this one.
//
// Pop dominates a Figure 16 run, and its sift is branch-free in the one
// place a branch cannot be predicted: which child is smaller is a coin flip
// on random event times, so a jump there mispredicts about half the time.
// The sift steps to the smaller child with a 0/1 increment instead, which
// the compiler emits as a flag set (SETHI on amd64). That needs a right
// child to compare against even when the left child is the last event, so
// pop writes +Inf into the slot the last event vacates: +Inf is never
// strictly less than a real time, so the sift keeps the left child exactly
// where container/heap's bounds test would, and the comparisons stay
// container/heap's (strict-less child selection, stop once the smaller
// child is not less than the sifted event).
// TestEventHeapMatchesContainerHeap and FuzzEventHeap pin the order against
// container/heap on input that is mostly ties, including heaps that keep
// draining through the sizes where the +Inf slot is the right child, and
// TestDifferentialReference pins the whole loop against the historical
// implementation.

// eventHeap is the event queue: times[i] is when packet pkts[i] reaches its
// next hop.
type eventHeap struct {
	times []float64
	pkts  []int32
}

// reset empties the heap, growing its arrays to hold n events if needed.
func (h *eventHeap) reset(n int) {
	if cap(h.times) < n {
		h.times = make([]float64, 0, n)
		h.pkts = make([]int32, 0, n)
	}
	h.times, h.pkts = h.times[:0], h.pkts[:0]
}

func (h *eventHeap) len() int { return len(h.times) }

// push adds an event and sifts it up (container/heap Push): the new event
// climbs while it is strictly earlier than its parent. The sift is
// hole-style — parents move down and the event is written once at its final
// slot — with container/heap's exact comparisons.
func (h *eventHeap) push(t float64, pkt int32) {
	times, pkts := append(h.times, t), append(h.pkts, pkt)
	h.times, h.pkts = times, pkts
	j := len(times) - 1
	for j > 0 {
		i := (j - 1) / 2
		if t >= times[i] {
			break
		}
		times[j], pkts[j] = times[i], pkts[i]
		j = i
	}
	times[j], pkts[j] = t, pkt
}

// pop removes and returns the earliest event (container/heap Pop: move the
// last element to the root, shrink, sift it down). The sift is hole-style
// but performs the exact comparison sequence of container/heap's down(), so
// the resulting array layout (and therefore tie ordering) is identical. The
// vacated slot holds +Inf while the sift runs (see the file comment); the
// next push overwrites it. The heap must be non-empty.
func (h *eventHeap) pop() (t float64, pkt int32) {
	times := h.times
	n := len(times) - 1
	pkts := h.pkts[:n+1]
	t, pkt = times[0], pkts[0]
	vt, vp := times[n], pkts[n]
	times[n] = math.Inf(1)
	h.times, h.pkts = times[:n], pkts[:n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		right := 0
		if times[j+1] < times[j] {
			right = 1
		}
		j += right
		if times[j] >= vt {
			break
		}
		times[i], pkts[i] = times[j], pkts[j]
		i = j
	}
	times[i], pkts[i] = vt, vp
	return t, pkt
}

// pushMinFloat and popMinFloat keep a small binary min-heap of float64
// without interface boxing; stations use it for queued service-start times.
func pushMinFloat(h *[]float64, v float64) {
	*h = append(*h, v)
	for i := len(*h) - 1; i > 0; {
		parent := (i - 1) / 2
		if (*h)[parent] <= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func popMinFloat(h *[]float64) {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	for i := 0; ; {
		l, r, small := 2*i+1, 2*i+2, i
		if l < n && (*h)[l] < (*h)[small] {
			small = l
		}
		if r < n && (*h)[r] < (*h)[small] {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
}

// siftDownMinFloat restores the binary min-heap invariant after the root's
// key increased in place (a served station lane got a later free time). All
// lanes are interchangeable, so increase-key on the root is the only
// operation server selection needs.
func siftDownMinFloat(h []float64, i int) {
	n := len(h)
	for {
		l, r, small := 2*i+1, 2*i+2, i
		if l < n && h[l] < h[small] {
			small = l
		}
		if r < n && h[r] < h[small] {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}
