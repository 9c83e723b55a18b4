package sim

import (
	"fmt"

	"spacx/internal/dataflow"
	"spacx/internal/dnn"
	"spacx/internal/energy"
	"spacx/internal/network"
	"spacx/internal/photonic"
)

// Point is one sweep coordinate of the batch kernel: a layer instance
// evaluated on an accelerator under a residency mode — exactly the argument
// triple of RunLayer.
type Point struct {
	Accel Accelerator
	Layer dnn.Layer
	Mode  Mode
}

// cohortKey identifies a mapping-equivalence class of sweep points: points
// with equal keys produce identical dataflow mappings, flow geometry, and
// network timings, so the kernel computes those once per cohort. The key is
// the experiment engine's memoization key minus Mode and GBBytes — Map reads
// neither (mappers tile against the PE buffer, not the global buffer); they
// only steer per-point DRAM traffic and access energy, which is what the
// columnwise pass computes.
type cohortKey struct {
	netFP    string
	arch     string
	flow     string
	m, n     int
	vecWidth int
	clockHz  float64
	peBuf    int
	gef, gk  int
	layer    dnn.Layer
}

func cohortKeyFor(p Point) (cohortKey, bool) {
	fp, ok := network.FingerprintOf(p.Accel.Arch.Net)
	if !ok {
		return cohortKey{}, false
	}
	a := p.Accel.Arch
	return cohortKey{
		netFP: fp, arch: a.Name, flow: p.Accel.Flow.Name(),
		m: a.M, n: a.N, vecWidth: a.VectorWidth, clockHz: a.ClockHz,
		peBuf: a.PEBufBytes, gef: a.GEF, gk: a.GK, layer: p.Layer,
	}, true
}

// CohortKey returns a deterministic string identifying the point's mapping
// cohort, or ok=false when the accelerator's network model has no
// fingerprint (such points fall back to the scalar kernel inside RunBatch).
// Callers that split a point set across RunBatch calls sort it by this key
// so cohort members land in the same call and actually share their mapping
// work.
func (p Point) CohortKey() (string, bool) {
	k, ok := cohortKeyFor(p)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("%s|%s|%s|%dx%d|w%d|h%g|p%d|g%d/%d|%+v",
		k.netFP, k.arch, k.flow, k.m, k.n, k.vecWidth, k.clockHz,
		k.peBuf, k.gef, k.gk, k.layer), true
}

// RunBatch evaluates a slice of sweep points through the batched
// structure-of-arrays kernel. Points are partitioned into mapping cohorts
// (see cohortKey); each cohort's tiling, mapping, flow-pool folding, dynamic
// network energy, and serial overheads are computed once, and the per-point
// residue — DRAM traffic, critical path, energies — is computed columnwise
// over contiguous float64 slabs.
//
// Results are index-addressed: out[i] corresponds to pts[i] and is
// bit-identical to RunLayer(pts[i].Accel, pts[i].Layer, pts[i].Mode).
// Cohort members share their Profile and FlowSecs shallowly — callers must
// not mutate them. On failure every
// other point is still evaluated and the error of the lowest-index failing
// point is returned, with failed entries left zero — the experiment
// engine's convention.
func RunBatch(pts []Point) ([]LayerResult, error) {
	out := make([]LayerResult, len(pts))
	if len(pts) == 0 {
		return out, nil
	}

	// Partition into mapping cohorts, preserving first-appearance order so
	// the evaluation order is a pure function of the input, never of map
	// iteration.
	groups := make(map[cohortKey]int, len(pts))
	cohorts := make([][]int, 0, len(pts))
	var fallback []int
	for i := range pts {
		k, ok := cohortKeyFor(pts[i])
		if !ok {
			fallback = append(fallback, i)
			continue
		}
		g, seen := groups[k]
		if !seen {
			g = len(cohorts)
			groups[k] = g
			cohorts = append(cohorts, nil)
		}
		cohorts[g] = append(cohorts[g], i)
	}

	// Structure-of-arrays outputs in cohort-position space: each cohort owns
	// a contiguous span of every column.
	cols := newColumns(len(pts)-len(fallback), 6)
	dramSec, execSec, commSec := cols[0], cols[1], cols[2]
	computeE, laserJ, heatJ := cols[3], cols[4], cols[5]
	dramB := make([]int64, len(pts)-len(fallback))

	var firstErr error
	firstErrIdx := len(pts)
	fail := func(i int, err error) {
		if i < firstErrIdx {
			firstErrIdx, firstErr = i, err
		}
	}

	pos := 0
	for _, idx := range cohorts {
		p0 := pts[idx[0]]
		prof, err := p0.Accel.Flow.Map(p0.Layer, p0.Accel.Arch)
		if err != nil {
			// The layer and accelerator names are cohort constants, so this
			// wrapped error is byte-identical to the scalar kernel's for
			// every member.
			werr := fmt.Errorf("sim: mapping %s on %s: %w", p0.Layer.Name, p0.Accel.Name(), err)
			for _, i := range idx {
				fail(i, werr)
			}
			continue
		}

		// Hoisted cohort prelude — everything Mode and GBBytes cannot touch:
		// the compute schedule, the flow pools, dynamic network energy, the
		// serial overheads, and the static power draw.
		arch := p0.Accel.Arch
		net := arch.Net
		computeSec := float64(prof.VectorSteps) / arch.ClockHz
		fc := dataflow.MeasureFlows(net, prof.Flows)
		overhead := float64(prof.RetuneEpochs) * photonic.SplitterTuneDelaySeconds
		if len(prof.Flows) > 0 {
			overhead += 2 * net.PacketLatency(prof.Flows[0])
		}
		sp := net.StaticPower()
		dynTotal := fc.Dynamic.Total()

		// Compute-energy prefix. energy.Compute.Total accumulates strictly
		// left to right (MACs, PEBuf reads/writes, GB reads/writes, DRAM);
		// hoisting a prefix of that chain preserves bit-identical rounding
		// as long as the remaining terms are added in the same order below.
		ePrefix := float64(prof.MACs()) * energy.MACEnergy8b
		ePrefix += float64(prof.PEBufReadBytes) * energy.SRAMReadEnergyPerByte(arch.PEBufBytes)
		ePrefix += float64(prof.PEBufWriteBytes) * energy.SRAMWriteEnergyPerByte(arch.PEBufBytes)
		gbUniform := true
		for _, i := range idx[1:] {
			if pts[i].Accel.Arch.GBBytes != arch.GBBytes {
				gbUniform = false
				break
			}
		}

		// Per-point inputs: DRAM traffic is the only Mode/GBBytes-dependent
		// time input.
		lo := pos
		for _, i := range idx {
			dramB[pos] = dramBytes(pts[i].Layer, pts[i].Accel.Arch, pts[i].Mode)
			pos++
		}
		db := dramB[lo:pos]
		ds, ex, cm := dramSec[lo:pos], execSec[lo:pos], commSec[lo:pos]
		ce, la, he := computeE[lo:pos], laserJ[lo:pos], heatJ[lo:pos]

		for j := range db {
			ds[j] = float64(db[j]) / energy.DRAMBandwidthBytesPerSec
		}
		// Critical path: compute, maximally overlapped with the input,
		// output, and DRAM pools — the same max chain as the scalar kernel,
		// with the mode-invariant part folded ahead of the loop.
		floor := computeSec
		if fc.InputSec > floor {
			floor = fc.InputSec
		}
		if fc.OutputSec > floor {
			floor = fc.OutputSec
		}
		for j := range ds {
			e := floor
			if ds[j] > e {
				e = ds[j]
			}
			ex[j] = e + overhead
		}
		for j := range ex {
			cm[j] = ex[j] - computeSec
		}
		if gbUniform {
			eAll := ePrefix + float64(prof.GBReadBytes)*energy.SRAMReadEnergyPerByte(arch.GBBytes)
			eAll += float64(prof.GBWriteBytes) * energy.SRAMWriteEnergyPerByte(arch.GBBytes)
			for j := range db {
				ce[j] = eAll + float64(db[j])*8*energy.DRAMEnergyPerBit
			}
		} else {
			gbr, gbw := float64(prof.GBReadBytes), float64(prof.GBWriteBytes)
			for j, i := range idx {
				gb := pts[i].Accel.Arch.GBBytes
				e := ePrefix + gbr*energy.SRAMReadEnergyPerByte(gb)
				e += gbw * energy.SRAMWriteEnergyPerByte(gb)
				ce[j] = e + float64(db[j])*8*energy.DRAMEnergyPerBit
			}
		}
		for j := range ex {
			la[j] = sp.Laser * ex[j]
		}
		for j := range ex {
			he[j] = sp.Heating * ex[j]
		}

		// Scatter the columns back into the index-addressed results.
		for j, i := range idx {
			r := &out[i]
			r.Layer = pts[i].Layer
			r.Profile = prof
			r.ComputeSec = computeSec
			r.InputSec = fc.InputSec
			r.OutputSec = fc.OutputSec
			r.DRAMSec = ds[j]
			r.ExecSec = ex[j]
			r.CommSec = cm[j]
			r.ComputeEnergy = ce[j]
			r.NetDynamic = fc.Dynamic
			r.NetStaticJ = network.StaticParts{Laser: la[j], Heating: he[j]}
			r.NetworkEnergy = dynTotal + r.NetStaticJ.Total()
			r.TotalEnergy = r.ComputeEnergy + r.NetworkEnergy
			r.DRAMBytes = db[j]
			r.FlowSecs = fc.Times
		}
	}

	// Accelerators whose network model has no fingerprint cannot be
	// cohort-keyed; their points run through the scalar kernel one by one.
	for _, i := range fallback {
		r, err := RunLayer(pts[i].Accel, pts[i].Layer, pts[i].Mode)
		if err != nil {
			fail(i, err)
			continue
		}
		out[i] = r
	}
	return out, firstErr
}
