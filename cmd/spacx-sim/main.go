// Command spacx-sim runs one DNN model on one accelerator and prints the
// per-layer execution time and energy rows.
//
// Usage:
//
//	spacx-sim -model resnet50 -accel spacx -mode whole
//	spacx-sim -model vgg16 -accel simba -mode layer
//	spacx-sim -model resnet50 -accel spacx -metrics /tmp/m.prom -v
//
// Observability: -metrics writes a metrics snapshot (Prometheus text format,
// or JSON when the path ends in .json) covering per-layer mapping timers,
// flow bytes by class/direction, overlap accounting, and a packet-latency
// histogram from a packet-level probe of the model's traffic; -cpuprofile
// and -memprofile write runtime/pprof profiles; -v logs progress to stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"spacx"
	"spacx/internal/buildinfo"
	"spacx/internal/dataflow"
	"spacx/internal/dnn"
	"spacx/internal/exp"
	"spacx/internal/obs"
	"spacx/internal/sim"
	"spacx/internal/trace"
)

type options struct {
	model   string
	accel   string
	mode    string
	format  string
	batch   int
	trace   string
	explain bool

	metrics      string
	probePackets int
	cpuProfile   string
	memProfile   string
	verbose      bool
}

func main() {
	var o options
	flag.StringVar(&o.model, "model", "resnet50", "DNN model: resnet50, vgg16, densenet201, efficientnetb7, alexnet, mobilenetv2")
	flag.StringVar(&o.accel, "accel", "spacx", "accelerator: spacx, spacx-noba, simba, popstar")
	flag.StringVar(&o.mode, "mode", "whole", "residency mode: whole (GB reuse) or layer (DRAM per layer)")
	flag.StringVar(&o.format, "format", "text", "output format: text or json")
	flag.IntVar(&o.batch, "batch", 1, "batch size (samples processed together)")
	flag.StringVar(&o.trace, "trace", "", "write a chrome://tracing JSON schedule to this path")
	flag.BoolVar(&o.explain, "explain", false, "print the mapping decisions per layer instead of the summary rows")
	flag.StringVar(&o.metrics, "metrics", "", "write a metrics snapshot to this path (Prometheus text format; .json extension switches to JSON)")
	flag.IntVar(&o.probePackets, "probe-packets", 20000, "packets for the -metrics packet-level network probe")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this path")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this path on exit")
	flag.BoolVar(&o.verbose, "v", false, "log structured progress to stderr")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get().String())
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "spacx-sim:", err)
		os.Exit(1)
	}
}

// parseAccel resolves the -accel enum.
func parseAccel(name string) (spacx.Accelerator, error) {
	switch name {
	case "spacx":
		return spacx.SPACX(), nil
	case "spacx-noba":
		return spacx.SPACXNoBA(), nil
	case "simba":
		return spacx.Simba(), nil
	case "popstar":
		return spacx.POPSTAR(), nil
	default:
		return spacx.Accelerator{}, fmt.Errorf("unknown accelerator %q (spacx, spacx-noba, simba, popstar)", name)
	}
}

// parseMode resolves the -mode enum.
func parseMode(name string) (spacx.Mode, error) {
	switch name {
	case "whole":
		return spacx.WholeInference, nil
	case "layer":
		return spacx.LayerByLayer, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (whole, layer)", name)
	}
}

// validate fails fast on out-of-range or mutually inconsistent flags, before
// any simulation work starts.
func validate(o options) error {
	if o.format != "text" && o.format != "json" {
		return fmt.Errorf("unknown format %q (text, json)", o.format)
	}
	if o.explain && o.format == "json" {
		return fmt.Errorf("-explain is incompatible with -format json (mapping explanations are text-only; drop one)")
	}
	if o.batch < 1 {
		return fmt.Errorf("batch must be >= 1, got %d", o.batch)
	}
	if o.probePackets < 1 {
		return fmt.Errorf("probe-packets must be >= 1, got %d", o.probePackets)
	}
	return nil
}

func run(o options) error {
	// Validate every flag before simulating so a typo fails fast instead of
	// after a full run.
	if err := validate(o); err != nil {
		return err
	}
	m, err := spacx.ModelByName(o.model)
	if err != nil {
		return err
	}
	acc, err := parseAccel(o.accel)
	if err != nil {
		return err
	}
	mode, err := parseMode(o.mode)
	if err != nil {
		return err
	}

	stopProfiles, err := obs.StartProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "spacx-sim:", err)
		}
	}()

	rec := obs.Recorder(obs.Nop())
	var reg *obs.Registry
	if o.metrics != "" || o.verbose {
		reg = obs.NewRegistry(obs.NewLogger(os.Stderr, o.verbose))
		rec = reg
		exp.SetRecorder(rec)
	}

	// Batch the model in place (rather than via Request.Batch) so the
	// -metrics network probe below sees the same batched traffic.
	if o.batch > 1 {
		for i := range m.Layers {
			m.Layers[i] = m.Layers[i].WithBatch(o.batch)
		}
	}

	// SIGINT/SIGTERM cancels between layers: the run stops where it is and
	// the collected metrics still flush below.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	observed := sim.ObservedRunner(rec)
	runner := func(a sim.Accelerator, l *dnn.Layer, md sim.Mode, lr *sim.LayerResult) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return observed(a, l, md, lr)
	}
	log := rec.Logger()
	log.Debug("sim: run start", "model", m.Name, "accel", acc.Name(), "mode", mode.String(),
		"layers", len(m.Layers), "batch", o.batch)
	res, simErr := sim.Request{Accel: acc, Model: m, Mode: mode}.Run(runner)
	interrupted := errors.Is(simErr, context.Canceled)
	if simErr != nil && !interrupted {
		return simErr
	}
	if simErr == nil {
		log.Debug("sim: run done", "model", m.Name, "accel", acc.Name(),
			"execSec", res.ExecSec, "computeSec", res.ComputeSec,
			"totalJ", res.TotalEnergy, "networkJ", res.NetworkEnergy)
	}
	if o.trace != "" && simErr == nil {
		create := func(p string) (io.WriteCloser, error) { return os.Create(p) }
		if err := trace.ExportFile(create, o.trace, res); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", o.trace)
	}
	if o.metrics != "" {
		if simErr == nil {
			// Packet-level probe so the snapshot includes eventsim latency
			// and utilization data for this model's traffic.
			if _, err := exp.NetworkProbe(acc, m, o.probePackets, rec); err != nil {
				return err
			}
		}
		if err := reg.WriteFile(o.metrics); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", o.metrics)
	}
	if interrupted {
		return fmt.Errorf("interrupted: %w", simErr)
	}

	if o.format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	if o.explain {
		for _, lr := range res.Layers {
			fmt.Println(dataflow.Explain(lr.Profile, acc.Arch))
		}
		return nil
	}
	fmt.Printf("%s on %s (%s)\n", m.Name, acc.Name(), mode)
	fmt.Printf("%-24s %4s %12s %12s %12s %12s\n",
		"layer", "rep", "comp(us)", "comm(us)", "exec(us)", "energy(uJ)")
	for _, lr := range res.Layers {
		fmt.Printf("%-24s %4d %12.2f %12.2f %12.2f %12.1f\n",
			lr.Layer.Name, lr.Layer.Repeat,
			lr.ComputeSec*1e6, lr.CommSec*1e6, lr.ExecSec*1e6, lr.TotalEnergy*1e6)
	}
	fmt.Printf("\ntotal: exec %.4f ms (compute %.4f ms), energy %.3f mJ (network %.3f mJ)\n",
		res.ExecSec*1e3, res.ComputeSec*1e3, res.TotalEnergy*1e3, res.NetworkEnergy*1e3)
	return nil
}
