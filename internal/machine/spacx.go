package machine

import (
	"fmt"

	"spacx/internal/dnn"
	"spacx/internal/network/spacxnet"
)

// SPACXMachine executes layers through the SPACX broadcast schedule. Every
// PE computes exclusively from data that was delivered to it by a broadcast
// event, so a wrong wavelength assignment or broadcast set produces wrong
// output values rather than silently passing.
type SPACXMachine struct {
	cfg spacxnet.Config

	// Derived topology.
	crossGroups  int
	singleGroups int
	posSlots     int // GEF * singleGroups: output positions in flight
	k3           int // GK: k values per single group

	// Stats accumulated across Run calls.
	Stats Stats
}

// Stats counts the communication and compute events of an execution.
type Stats struct {
	CrossBroadcasts  int64 // cross-chiplet weight broadcast events
	SingleBroadcasts int64 // single-chiplet ifmap broadcast events
	WeightValuesSent int64 // unique weight values modulated
	IfmapValuesSent  int64 // unique ifmap values modulated
	ValuesDelivered  int64 // values written into PE-local stores
	MACs             int64
	TokenPasses      int64
	OutputsDrained   int64
	IdlePEIterations int64
	ActivePEPeak     int
}

// pe is one processing element's local state: it may only read what has
// been delivered into its stores.
type pe struct {
	k       int // assigned output channel this iteration (-1 = idle)
	e, f    int // assigned output position (-1 = idle)
	weights []int32
	window  []int32 // flattened [cPerGroup][R][S] receptive field
	acc     int32
	valid   bool
}

// NewSPACX builds a machine over a validated network configuration.
func NewSPACX(cfg spacxnet.Config) (*SPACXMachine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &SPACXMachine{
		cfg:          cfg,
		crossGroups:  cfg.CrossGroups(),
		singleGroups: cfg.SingleGroupsPerChiplet(),
		posSlots:     cfg.GEF * cfg.SingleGroupsPerChiplet(),
		k3:           cfg.GK,
	}, nil
}

// Run executes one layer and returns the ofmap. The schedule follows
// Figure 9 with a row-major linearization of the (e1,f1,e2,f2,e3,f3)
// position factorization: position slot s covers (chiplet-in-group,
// single-group), and consecutive e/f iterations advance by posSlots.
func (m *SPACXMachine) Run(l dnn.Layer, ifmap *Tensor3, weights *Weights) (*Tensor3, error) {
	if err := checkShapes(l, ifmap, weights); err != nil {
		return nil, err
	}
	if l.K < l.Groups {
		return nil, fmt.Errorf("machine: K=%d below groups=%d", l.K, l.Groups)
	}
	out := NewTensor3(l.K, l.E, l.F)

	cPerGroup := l.C / l.Groups
	kPerGroup := l.K / l.Groups
	ef := l.E * l.F
	kSlots := m.k3 * m.crossGroups
	efIters := (ef + m.posSlots - 1) / m.posSlots
	kIters := (l.K + kSlots - 1) / kSlots

	// PE state: [crossGroup][chipletInGroup][singleGroup][peInGroup].
	pes := make([]pe, m.crossGroups*m.cfg.GEF*m.singleGroups*m.k3)
	idx := func(g, ci, sg, j int) int {
		return ((g*m.cfg.GEF+ci)*m.singleGroups+sg)*m.k3 + j
	}

	for efIter := 0; efIter < efIters; efIter++ {
		for k2 := 0; k2 < kIters; k2++ {
			// --- Assignment (Figure 9 lines 16-18, linearized). ---
			active := 0
			for g := 0; g < m.crossGroups; g++ {
				for ci := 0; ci < m.cfg.GEF; ci++ {
					for sg := 0; sg < m.singleGroups; sg++ {
						slot := ci*m.singleGroups + sg
						p := efIter*m.posSlots + slot
						for j := 0; j < m.k3; j++ {
							k := j + m.k3*(k2+kIters*g)
							q := &pes[idx(g, ci, sg, j)]
							*q = pe{k: -1, e: -1, f: -1}
							if p >= ef || k >= l.K {
								m.Stats.IdlePEIterations++
								continue
							}
							q.k = k
							q.e, q.f = p/l.F, p%l.F
							q.valid = true
							active++
						}
					}
				}
			}
			if active > m.Stats.ActivePEPeak {
				m.Stats.ActivePEPeak = active
			}
			if active == 0 {
				continue
			}

			// --- Cross-chiplet weight broadcast (group X wavelengths). ---
			// Wavelength lambda_j on waveguide (g, sg) carries the weights
			// of the k assigned to PE position j; every chiplet of cross
			// group g receives them.
			for g := 0; g < m.crossGroups; g++ {
				for sg := 0; sg < m.singleGroups; sg++ {
					for j := 0; j < m.k3; j++ {
						k := j + m.k3*(k2+kIters*g)
						if k >= l.K {
							continue
						}
						vec := weightVector(weights, k)
						m.Stats.CrossBroadcasts++
						m.Stats.WeightValuesSent += int64(len(vec))
						for ci := 0; ci < m.cfg.GEF; ci++ {
							q := &pes[idx(g, ci, sg, j)]
							if q.valid {
								q.weights = vec
								m.Stats.ValuesDelivered += int64(len(vec))
							}
						}
					}
				}
			}

			// --- Single-chiplet ifmap broadcast (group Y wavelengths). ---
			// The wavelength of chiplet (g, ci)'s local waveguide sg carries
			// the receptive field of position p; all k3 PEs of the group
			// receive it. PEs of different channel groups (grouped conv)
			// need different channel ranges; the broadcast carries the
			// union and each PE stores its slice.
			for g := 0; g < m.crossGroups; g++ {
				for ci := 0; ci < m.cfg.GEF; ci++ {
					for sg := 0; sg < m.singleGroups; sg++ {
						slot := ci*m.singleGroups + sg
						p := efIter*m.posSlots + slot
						if p >= ef {
							continue
						}
						e, f := p/l.F, p%l.F
						m.Stats.SingleBroadcasts++
						sent := false
						for j := 0; j < m.k3; j++ {
							q := &pes[idx(g, ci, sg, j)]
							if !q.valid {
								continue
							}
							cg := q.k / kPerGroup
							q.window = windowVector(l, ifmap, e, f, cg*cPerGroup, cPerGroup)
							m.Stats.ValuesDelivered += int64(len(q.window))
							if !sent {
								m.Stats.IfmapValuesSent += int64(len(q.window))
								sent = true
							}
						}
					}
				}
			}

			// --- Local MAC accumulation (Figure 9 lines 13-15). ---
			for i := range pes {
				q := &pes[i]
				if !q.valid {
					continue
				}
				q.acc = 0
				for t := range q.weights {
					q.acc += q.weights[t] * q.window[t]
					m.Stats.MACs++
				}
			}

			// --- Token-ring output drain (Section III-E): PE0 first, then
			// adjacent downstream PEs, one shared wavelength per local
			// waveguide. ---
			for g := 0; g < m.crossGroups; g++ {
				for ci := 0; ci < m.cfg.GEF; ci++ {
					for sg := 0; sg < m.singleGroups; sg++ {
						ring, err := spacxnet.NewTokenRing(m.k3)
						if err != nil {
							return nil, err
						}
						for step := 0; step < m.k3; step++ {
							j := ring.Holder()
							q := &pes[idx(g, ci, sg, j)]
							if q.valid {
								out.Set(q.k, q.e, q.f, q.acc)
								m.Stats.OutputsDrained++
							}
							ring.Pass()
							m.Stats.TokenPasses++
						}
					}
				}
			}
		}
	}
	return out, nil
}

// weightVector flattens W[k] into [cPerGroup*R*S] in (c, r, s) order.
func weightVector(w *Weights, k int) []int32 {
	vec := make([]int32, 0, w.C*w.R*w.S)
	for c := 0; c < w.C; c++ {
		for r := 0; r < w.R; r++ {
			for s := 0; s < w.S; s++ {
				vec = append(vec, w.At(k, c, r, s))
			}
		}
	}
	return vec
}

// windowVector flattens the receptive field of output position (e, f) over
// channels [c0, c0+cn) in matching (c, r, s) order, applying stride and
// padding.
func windowVector(l dnn.Layer, ifmap *Tensor3, e, f, c0, cn int) []int32 {
	vec := make([]int32, 0, cn*l.R*l.S)
	for c := c0; c < c0+cn; c++ {
		for r := 0; r < l.R; r++ {
			for s := 0; s < l.S; s++ {
				h := e*l.Stride + r - l.Pad
				w := f*l.Stride + s - l.Pad
				vec = append(vec, ifmap.At(c, h, w))
			}
		}
	}
	return vec
}
