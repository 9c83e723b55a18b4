package dataflow

import (
	"fmt"
	"strings"

	"spacx/internal/photonic"
)

// retuneNs is one optical-splitter retune in nanoseconds. The untyped
// constant expression is exact, so the printed total is the same 0.5 ns per
// epoch the simulator charges in seconds.
const retuneNs = photonic.SplitterTuneDelaySeconds * 1e9

// Explain renders a mapping profile as human-readable text: the spatial
// utilization, the serial loop structure, every network flow with its
// broadcast structure, and the memory-hierarchy traffic — the "why is this
// layer slow" view.
func Explain(p Profile, a Arch) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s\n", p.Layer.Name, p.Arch)
	fmt.Fprintf(&b, "  layer: %s\n", p.Layer.String())
	fmt.Fprintf(&b, "  spatial: %d/%d chiplets, %d/%d PEs (%.1f%% occupancy)\n",
		p.ActiveChiplets, a.M, p.ActivePEs, a.TotalPEs(),
		100*float64(p.ActivePEs)/float64(a.TotalPEs()))
	fmt.Fprintf(&b, "  temporal: %d vector-MAC steps/PE (%.1f%% MAC utilization)\n",
		p.VectorSteps, 100*p.Utilization(a))
	if p.RetuneEpochs > 0 {
		fmt.Fprintf(&b, "  optical retunes: %d epochs (%.1f ns total)\n",
			p.RetuneEpochs, float64(p.RetuneEpochs)*retuneNs)
	}
	fmt.Fprintf(&b, "  flows:\n")
	for _, f := range p.Flows {
		ff := f.Normalize()
		kind := "unicast"
		switch {
		case ff.DestPerDatum > 1 && ff.ChipletSpan > 1:
			kind = fmt.Sprintf("broadcast x%d (across %d chiplets)", ff.DestPerDatum, ff.ChipletSpan)
		case ff.DestPerDatum > 1:
			kind = fmt.Sprintf("broadcast x%d", ff.DestPerDatum)
		}
		copies := ""
		if ff.TxCopies > 1 {
			copies = fmt.Sprintf(", %d waveguide copies", ff.TxCopies)
		}
		fmt.Fprintf(&b, "    %-8s %-7s %10s over %3d streams, %s%s\n",
			ff.Class, ff.Dir, byteCount(ff.UniqueBytes), ff.Streams, kind, copies)
	}
	fmt.Fprintf(&b, "  memory: PE buf R %s / W %s, GB R %s / W %s\n",
		byteCount(p.PEBufReadBytes), byteCount(p.PEBufWriteBytes),
		byteCount(p.GBReadBytes), byteCount(p.GBWriteBytes))
	return b.String()
}

// byteCount formats a byte total compactly.
func byteCount(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
