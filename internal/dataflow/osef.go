package dataflow

import (
	"math"

	"spacx/internal/dnn"
	"spacx/internal/network"
)

// OSEF is the output-stationary OS(e/f) dataflow of ShiDianNao [36] as
// characterized in Section VIII-C: output positions are mapped across all
// PEs in the system (chiplet- and PE-level), and output channels iterate
// temporally. Weights enjoy full broadcast (every PE needs the same kernel),
// but input features do not — each PE works on a different position, so
// ifmap delivery degenerates to overlapping-window transfers repeated for
// every output channel. On SPACX this leaves the cross-chiplet/single-chiplet
// orthogonality half-used.
type OSEF struct{}

// Name implements Dataflow.
func (OSEF) Name() string { return "OS(e/f)" }

// Map implements Dataflow.
func (d OSEF) Map(l dnn.Layer, a Arch) (Profile, error) {
	var p Profile
	err := d.mapInto(&l, &a, &p)
	return p, err
}

// mapInto is Map filling the caller's p (see MapInto).
func (OSEF) mapInto(l *dnn.Layer, a *Arch, p *Profile) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if err := a.Validate(); err != nil {
		return err
	}
	gk := a.GK
	if gk == 0 {
		gk = a.N
	}
	singleGroups := a.N / gk
	cPerGroup := l.C / l.Groups

	ef := int(l.OutputPositions())
	posSlots := a.TotalPEs()
	usedPos := minInt(ef, posSlots)
	efIters := ceilDiv(int64(ef), int64(posSlots))
	// When the output plane is smaller than the PE array, idle PEs take
	// extra output channels (layers with small e/f, notably FC).
	kPar := minInt(l.K, a.TotalPEs()/maxIntv(1, usedPos))
	if kPar < 1 {
		kPar = 1
	}
	kIters := ceilDiv(int64(l.K), int64(kPar))
	activeChiplets := minInt(a.M, int(ceilDiv(int64(usedPos*kPar), int64(a.N))))

	// Temporal: the k loop per position, spread over kPar PE groups.
	perOutput := int64(l.R) * int64(l.S) * channelVectorOps(cPerGroup, a.VectorWidth)
	steps := efIters * kIters * perOutput

	buf := splitBuffer(a.PEBufBytes)

	// --- Weights: one kernel at a time, broadcast to every active PE.
	weightsPerK := int64(cPerGroup) * int64(l.R) * int64(l.S) * WeightBytes
	wFetch := efIters // re-streamed per position tile (K kernels rarely fit)
	if int64(l.K)*weightsPerK <= int64(buf.weight) {
		wFetch = 1
	}
	// Parallel streams: distinct kernels in flight, one per k-parallel PE
	// group (bounded by the wavelength group), plus prefetch pipelining when
	// the weight buffer can double-buffer kernels.
	prefetch := 1
	if weightsPerK > 0 && int64(buf.weight) > weightsPerK {
		prefetch = int(int64(buf.weight) / weightsPerK)
	}
	wStreams := minInt(maxIntv(kPar, prefetch), gk)
	flows := flowsFor(p.Flows, 3)
	flows[0] = network.Flow{
		Class:        network.Weights,
		Dir:          network.GBToPE,
		UniqueBytes:  int64(l.K) * weightsPerK * wFetch,
		Streams:      wStreams,
		DestPerDatum: maxIntv(1, usedPos/l.Groups),
		TxCopies:     maxIntv(1, activeChiplets*singleGroups/maxIntv(1, wStreams)),
		ChipletSpan:  activeChiplets,
		PESpan:       a.N,
	}

	// --- Ifmaps: per-chiplet union of the PEs' overlapping windows. The
	// dataflow tiles the c dimension so the window chunk fits the ifmap
	// buffer while the per-position psums stay resident across chunks
	// (output stationary); the union is re-delivered once per psum spill
	// tile of the k loop, not once per output channel.
	tileE := minInt(l.E, int(math.Sqrt(float64(a.N)))+1)
	tileF := int(ceilDiv(int64(minInt(usedPos, a.N)), int64(tileE)))
	unionPerChiplet := int64((tileE-1)*l.Stride+l.R) * int64((tileF-1)*l.Stride+l.S) *
		int64(cPerGroup) * IfmapBytes
	iFetch := ceilDiv(kIters*PsumBytes, int64(buf.psum))
	if iFetch < 1 {
		iFetch = 1
	}
	overlap := maxIntv(1, minInt(a.N, (l.R/l.Stride)*(l.S/l.Stride)))
	flows[1] = network.Flow{
		Class:        network.Ifmaps,
		Dir:          network.GBToPE,
		UniqueBytes:  int64(activeChiplets) * unionPerChiplet * efIters * iFetch,
		Streams:      maxIntv(1, activeChiplets*singleGroups),
		DestPerDatum: maxIntv(1, overlap*kPar/l.Groups),
		TxCopies:     1,
		ChipletSpan:  1,
		PESpan:       a.N,
	}

	flows[2] = network.Flow{
		Class:        network.Outputs,
		Dir:          network.PEToGB,
		UniqueBytes:  l.OfmapCount() * OutputBytes,
		Streams:      maxIntv(1, activeChiplets*singleGroups),
		DestPerDatum: 1,
		TxCopies:     1,
		ChipletSpan:  activeChiplets,
		PESpan:       a.N,
	}

	p.Layer = *l
	p.Arch = a.Name
	p.ActiveChiplets = activeChiplets
	p.ActivePEs = minInt(usedPos*kPar, a.TotalPEs())
	p.VectorSteps = steps
	p.Flows = flows
	p.RetuneEpochs = efIters + kIters
	fillAccessCounts(p, a)
	return nil
}

var _ Dataflow = OSEF{}
