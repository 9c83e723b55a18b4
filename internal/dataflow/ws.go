package dataflow

import (
	"spacx/internal/dnn"
	"spacx/internal/network"
)

// WS is the weight-stationary dataflow of Simba [13] as characterized in
// Section VIII-C: output channels (k) are mapped across chiplets (and across
// spare PEs), input channels (c) are mapped across the PEs of a chiplet, and
// weights are pinned in the large per-PE buffers. Parallel mapping along c
// means partial sums must be spatially reduced across PEs — cheap on an
// electrical mesh, but on a photonic network it forces E/O + O/E conversion
// pairs for every psum hop. Input features are needed by every output
// channel, so they are (emulated-)broadcast to all k-holding chiplets.
type WS struct{}

// Name implements Dataflow.
func (WS) Name() string { return "WS" }

// Map implements Dataflow.
func (d WS) Map(l dnn.Layer, a Arch) (Profile, error) {
	var p Profile
	err := d.mapInto(&l, &a, &p)
	return p, err
}

// mapInto is Map filling the caller's p (see MapInto).
func (WS) mapInto(l *dnn.Layer, a *Arch, p *Profile) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if err := a.Validate(); err != nil {
		return err
	}
	cPerGroup := l.C / l.Groups

	// Chiplet level: split K across chiplets; spare chiplets split the
	// output plane.
	kC := minInt(a.M, l.K)
	posC := a.M / kC // chiplets sharing the same k, splitting e/f

	// PE level: split c across PEs first (each PE covers VectorWidth
	// channels), then spare PEs take extra k. A step-minimizing split
	// search is tempting here, but the weight-stationary machines are
	// communication-bound: wider kPE multiplies the ifmap duplication
	// (every extra k-parallel PE is another emulated-broadcast
	// destination), so the channel-first heuristic — which is also what
	// keeps weights resident — is the stronger mapping in practice.
	cPE := minInt(a.N, int(ceilDiv(int64(cPerGroup), int64(a.VectorWidth))))
	kPE := minInt(a.N/cPE, int(ceilDiv(int64(l.K), int64(kC))))
	if kPE < 1 {
		kPE = 1
	}

	ef := int(l.OutputPositions())
	kIters := ceilDiv(int64(l.K), int64(kC*kPE))
	posIters := ceilDiv(int64(ef), int64(posC))

	perOutput := int64(l.R) * int64(l.S) *
		channelVectorOps(int(ceilDiv(int64(cPerGroup), int64(cPE))), a.VectorWidth)
	steps := kIters * posIters * perOutput

	buf := splitBuffer(a.PEBufBytes)

	// --- Weights: stationary; fetched once if the per-PE residency fits.
	perPEWeights := kIters * int64(l.R) * int64(l.S) *
		ceilDiv(int64(cPerGroup), int64(cPE)) * WeightBytes
	wFetch := int64(1)
	if perPEWeights > int64(buf.weight) {
		wFetch = posIters // re-stream weights per output tile
	}
	n := 3
	if cPE > 1 {
		n = 4 // psum reduction across the channel-parallel PEs
	}
	flows := flowsFor(p.Flows, n)
	flows[0] = network.Flow{
		Class:        network.Weights,
		Dir:          network.GBToPE,
		UniqueBytes:  l.WeightCount() * WeightBytes * wFetch,
		Streams:      maxIntv(1, minInt(kC*kPE*cPE, a.TotalPEs())),
		DestPerDatum: maxIntv(1, posC), // chiplets splitting e/f share k's weights
		TxCopies:     1,
		ChipletSpan:  kC * posC,
		PESpan:       cPE * kPE,
	}

	// --- Ifmaps: every k-chiplet needs the input volume for its positions.
	window := int64(l.R) * int64(l.S) * int64(cPerGroup) * IfmapBytes
	iFetch := int64(1)
	if window > int64(buf.ifmap)*int64(cPE) {
		iFetch = kIters
	}
	newPerPos := int64(l.R) * int64(minInt(l.S, l.Stride)) * int64(cPerGroup) * IfmapBytes
	flows[1] = network.Flow{
		Class:       network.Ifmaps,
		Dir:         network.GBToPE,
		UniqueBytes: int64(ef) * newPerPos * iFetch / int64(posC),
		Streams:     maxIntv(1, posC),
		// The same input feature feeds every chiplet holding a different k
		// (and every extra-k PE inside a chiplet).
		DestPerDatum: maxIntv(1, kC*kPE/l.Groups),
		TxCopies:     1,
		ChipletSpan:  kC,
		PESpan:       cPE,
	}

	// --- Psums: spatial reduction across the cPE channel-parallel PEs.
	if cPE > 1 {
		flows[2] = network.Flow{
			Class:        network.Psums,
			Dir:          network.PEToPE,
			UniqueBytes:  l.OfmapCount() * PsumBytes * int64(cPE-1),
			Streams:      maxIntv(1, minInt(a.TotalPEs()/2, kC*kPE*(cPE-1))),
			DestPerDatum: 1,
			TxCopies:     1,
			ChipletSpan:  kC * posC,
			PESpan:       cPE,
		}
	}

	flows[n-1] = network.Flow{
		Class:        network.Outputs,
		Dir:          network.PEToGB,
		UniqueBytes:  l.OfmapCount() * OutputBytes,
		Streams:      maxIntv(1, kC*posC),
		DestPerDatum: 1,
		TxCopies:     1,
		ChipletSpan:  kC * posC,
		PESpan:       kPE,
	}

	p.Layer = *l
	p.Arch = a.Name
	p.ActiveChiplets = kC * posC
	p.ActivePEs = minInt(kC*posC*cPE*kPE, a.TotalPEs())
	p.VectorSteps = steps
	p.Flows = flows
	p.RetuneEpochs = 0
	fillAccessCounts(p, a)
	return nil
}

var _ Dataflow = WS{}
