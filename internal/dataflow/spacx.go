package dataflow

import (
	"fmt"

	"spacx/internal/dnn"
	"spacx/internal/network"
)

// SPACX is the broadcast-enabled output-stationary dataflow of Section IV
// (nested-loop form in Figure 9):
//
//   - Output positions (the e/f plane) are mapped across the chiplets of a
//     cross-chiplet broadcast group (e2/f2) and across the single-chiplet
//     groups on each chiplet (e3/f3) — so weights, which are shared by all
//     positions of one output channel, ride the cross-chiplet broadcast.
//   - Output channels (k) are mapped across the PEs of a single-chiplet
//     group (k3) and across cross-chiplet groups (k1) — so input features,
//     which are shared by all channels at one position, ride the
//     single-chiplet broadcast.
//   - Psums never leave the PE (output stationary): only final output
//     features traverse the shared token-ring return wavelength.
//
// BandwidthAllocation enables the Section VI scheme: when weight and ifmap
// demands are unbalanced, idle wavelengths of one group carry multicast
// traffic of the other data type (cross-chiplet ifmap multicast on X
// wavelengths, single-chiplet weight multicast on Y wavelengths), at the
// cost of extra splitter retuning and extra E/O conversions.
type SPACX struct {
	BandwidthAllocation bool
}

// Name implements Dataflow.
func (d SPACX) Name() string {
	if d.BandwidthAllocation {
		return "SPACX"
	}
	return "SPACX-BA"
}

// Map implements Dataflow.
func (d SPACX) Map(l dnn.Layer, a Arch) (Profile, error) {
	var p Profile
	err := d.mapInto(&l, &a, &p)
	return p, err
}

// mapInto is Map filling the caller's p (see MapInto).
func (d SPACX) mapInto(l *dnn.Layer, a *Arch, p *Profile) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if err := a.Validate(); err != nil {
		return err
	}
	gef, gk := a.GEF, a.GK
	if gef == 0 {
		gef = a.M
	}
	if gk == 0 {
		gk = a.N
	}
	crossGroups := a.M / gef
	singleGroups := a.N / gk

	// Spatial slots: output positions in flight and output channels in
	// flight (Figure 9 lines 4-6 and 9-11).
	posSlots := gef * singleGroups
	kSlots := gk * crossGroups

	ef := int(l.OutputPositions())
	usedPos := minInt(ef, posSlots)
	usedK := minInt(l.K, kSlots)
	efIters := ceilDiv(int64(ef), int64(posSlots))
	kIters := ceilDiv(int64(l.K), int64(kSlots))

	activeCrossGroups := minInt(crossGroups, int(ceilDiv(int64(l.K), int64(gk))))
	chipletsPerGroup := minInt(gef, int(ceilDiv(int64(usedPos), int64(singleGroups))))
	activeChiplets := chipletsPerGroup * activeCrossGroups

	cPerGroup := l.C / l.Groups
	// Work per output feature: the c/r/s loops (Figure 9 lines 13-15),
	// vectorized along c.
	perOutput := int64(l.R) * int64(l.S) * channelVectorOps(cPerGroup, a.VectorWidth)
	steps := efIters * kIters * perOutput

	// Per-PE residency follows the Figure 9 loop order: the ifmap window is
	// reused across the k2 loop (it has the higher reuse count), weights
	// are consumed once per output and are re-broadcast across e/f
	// iterations unless they fit in the space left next to the window —
	// the paper's stated trade of data locality for massive (cheap)
	// broadcast communication. Buffer shares are planned adaptively; the
	// execution controller configures them offline per layer (Section
	// III-F).
	weightsPerK := int64(cPerGroup) * int64(l.R) * int64(l.S) * WeightBytes
	window := int64(l.R) * int64(l.S) * int64(cPerGroup) * IfmapBytes
	sliding := int64(l.R) * int64(minInt(l.S, l.Stride)) * int64(cPerGroup) * IfmapBytes

	wFetch, iFetch := int64(1), int64(1)
	newPerPos := sliding
	capacity := int64(a.PEBufBytes) - psumMin
	if window+fifoMin <= capacity {
		// Window resident across k2; weights resident only if they fit in
		// the remainder.
		if weightsPerK > capacity-window {
			wFetch = efIters
		}
	} else {
		// Window cannot persist: re-broadcast it per k iteration.
		iFetch = kIters
		newPerPos = window
		if weightsPerK > capacity-fifoMin {
			wFetch = efIters
		}
	}

	// --- Weight flow: cross-chiplet broadcast on group X wavelengths. ---
	flows := flowsFor(p.Flows, 3)
	flows[0] = network.Flow{
		Class:       network.Weights,
		Dir:         network.GBToPE,
		UniqueBytes: int64(l.K) * weightsPerK * wFetch,
		Streams:     maxIntv(1, usedK),
		// Every weight is consumed by all positions of its output channel.
		DestPerDatum: maxIntv(1, usedPos),
		// The same weight stream feeds one waveguide per single-chiplet
		// group (the k3 PE position repeats on every local waveguide).
		TxCopies:    singleGroups,
		ChipletSpan: chipletsPerGroup,
		PESpan:      minInt(a.N, singleGroups*gk),
	}
	// --- Ifmap flow: single-chiplet broadcast on group Y wavelengths. ---
	// Sharing along k: all channels at a position need the same window;
	// grouped convolutions divide the sharing set.
	kShare := maxIntv(1, usedK/l.Groups)
	flows[1] = network.Flow{
		Class:        network.Ifmaps,
		Dir:          network.GBToPE,
		UniqueBytes:  int64(ef) * newPerPos * iFetch,
		Streams:      maxIntv(1, usedPos),
		DestPerDatum: kShare,
		// The same position lives in every active cross group.
		TxCopies:    activeCrossGroups,
		ChipletSpan: 1,
		PESpan:      gk,
	}

	// --- Output flow: token-ring return on the shared Y wavelengths. ---
	flows[2] = network.Flow{
		Class:        network.Outputs,
		Dir:          network.PEToGB,
		UniqueBytes:  l.OfmapCount() * OutputBytes,
		Streams:      maxIntv(1, minInt(usedPos*activeCrossGroups, a.M*singleGroups)),
		DestPerDatum: 1,
		TxCopies:     1,
		ChipletSpan:  activeChiplets,
		PESpan:       gk,
	}

	retunes := efIters + kIters
	if d.BandwidthAllocation {
		retunes = rebalance(l, a, &flows[0], &flows[1], retunes, kIters)
	}

	p.Layer = *l
	p.Arch = a.Name
	p.ActiveChiplets = activeChiplets
	p.ActivePEs = minInt(usedPos*usedK, a.TotalPEs())
	p.VectorSteps = steps
	p.Flows = flows
	p.RetuneEpochs = retunes
	fillAccessCounts(p, a)
	return nil
}

// rebalance implements the flexible bandwidth-allocation scheme of
// Section VI: the bound data type borrows idle wavelength-time from the
// other group. Borrowed transfers are multicasts (cross-chiplet ifmap
// multicast of convolution-reused values, single-chiplet weight multicast),
// which cost extra transmitter conversions and extra splitter retuning. It
// adjusts the weight flow w and the ifmap flow i in place and returns the
// retune count.
func rebalance(l *dnn.Layer, a *Arch, w, i *network.Flow, retunes, kIters int64) int64 {
	wT := float64(w.UniqueBytes) / float64(w.Streams)
	iT := float64(i.UniqueBytes) / float64(i.Streams)
	if wT == iT || w.UniqueBytes == 0 || i.UniqueBytes == 0 {
		return retunes
	}
	// Balanced completion: both classes share the combined wavelength pool.
	// min(S,F2)*min(R,E2)*K1 chiplets share an input feature (Section VI),
	// so borrowed ifmap transfers are real multicasts as long as the layer
	// has convolution reuse; weight multicast reuse is E3*F3 local PEs.
	// Borrowed transfers serialize along the dimension their wavelength
	// group does not parallelize (Section VI's "can only be performed
	// sequentially"), so borrowing recovers only half of the idle
	// wavelength-time; the target is the midpoint between the unbalanced
	// and perfectly pooled schedules.
	total := float64(w.UniqueBytes + i.UniqueBytes)
	pool := float64(w.Streams + i.Streams)
	balanced := total / pool

	if wT > iT {
		// Weight-bound: single-chiplet weight multicast on idle Y channels.
		newStreams := (w.Streams + int(float64(w.UniqueBytes)/balanced+0.5) + 1) / 2
		if newStreams > w.Streams {
			w.Streams = newStreams
			w.TxCopies++ // the borrowed path modulates a second group
			retunes += kIters
		}
	} else {
		// Ifmap-bound: cross-chiplet ifmap multicast on idle X channels
		// (Figure 12). Only meaningful when the convolution actually
		// reuses input features across chiplets — the sharing set is
		// min(S,F2)*min(R,E2)*K1 chiplets (Section VI).
		gef := a.GEF
		if gef == 0 {
			gef = a.M
		}
		reuse := IfmapReuseChiplets(*l, gef, gef, a.M/maxIntv(1, gef))
		if reuse > 1 || l.Kind == dnn.FC {
			newStreams := (i.Streams + int(float64(i.UniqueBytes)/balanced+0.5) + 1) / 2
			if newStreams > i.Streams {
				i.Streams = newStreams
				i.TxCopies++
				retunes += kIters
			}
		}
	}
	return retunes
}

// fillAccessCounts derives the memory-hierarchy access counts shared by all
// dataflows: per-MAC operand reads at the PE buffers (partial sums live in
// the MAC accumulator register and only touch the accumulation buffer once
// per output), arrival writes for delivered data, and GB reads per
// transmitted copy / writes per received output. On networks without
// broadcast support, every emulated-broadcast duplicate is a separate GB
// SRAM read.
func fillAccessCounts(p *Profile, a *Arch) {
	macs := p.MACs()
	p.PEBufReadBytes = macs * (WeightBytes + IfmapBytes)
	caps := a.Net.Caps()
	broadcast := caps.CrossChipletBroadcast || caps.SingleChipletBroadcast
	var delivered int64
	var gbRead, gbWrite int64
	for i := range p.Flows {
		ff := p.Flows[i].Normalize()
		switch ff.Dir {
		case network.GBToPE:
			delivered += ff.UniqueBytes * int64(ff.DestPerDatum)
			if broadcast {
				gbRead += ff.UniqueBytes * int64(ff.TxCopies)
			} else {
				gbRead += ff.UniqueBytes * int64(ff.DestPerDatum)
			}
		case network.PEToGB:
			gbWrite += ff.UniqueBytes
		case network.PEToPE:
			// Relayed psums are read and written at both PE buffers.
			delivered += ff.UniqueBytes
			p.PEBufReadBytes += ff.UniqueBytes
		}
	}
	p.PEBufWriteBytes = p.Layer.OfmapCount()*PsumBytes + delivered
	p.GBReadBytes = gbRead
	p.GBWriteBytes = gbWrite
}

func maxIntv(a, b int) int {
	if a > b {
		return a
	}
	return b
}

var _ Dataflow = SPACX{}

// String returns a human-readable description.
func (d SPACX) String() string {
	return fmt.Sprintf("SPACX dataflow (bandwidth allocation: %v)", d.BandwidthAllocation)
}
