// Command spacx-thermal runs the closed-loop thermal co-simulation: an RC
// thermal network of the SPACX package fed by the simulator's power model,
// coupled back into the photonic ring-tuning budget so sustained load
// raises die temperature, tuning power, and — once the heaters saturate and
// the loss margin goes negative — throttles throughput.
//
// Usage:
//
//	spacx-thermal -model alexnet -profile step -steps 180
//	spacx-thermal -model resnet50 -profile diurnal -seed 7 -steps 720 -dt 10
//	spacx-thermal -model alexnet -feedback=false -out replay.json
//	spacx-thermal -capacity
//
// Output: an aligned text summary on stdout; -out writes the full
// schema-versioned JSON time series (spacx.thermal-replay/v1, "-" for
// stdout). -capacity skips the replay and prints the steady-state
// capacity-under-drift table instead. Replays are deterministic: the
// offered-load profile is a pure function of (profile, seed, steps) and the
// RC integration is fixed-step.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"spacx/internal/buildinfo"
	"spacx/internal/dnn"
	"spacx/internal/exp"
	"spacx/internal/obs"
	"spacx/internal/report"
	"spacx/internal/sim"
)

type options struct {
	model    string
	mode     string
	profile  string
	seed     int64
	steps    int
	dt       float64
	feedback bool
	capacity bool
	out      string

	metrics string
	verbose bool
	version bool
}

func main() {
	var o options
	flag.StringVar(&o.model, "model", "alexnet", "DNN model to replay (resnet50, vgg16, densenet201, efficientnetb7, alexnet, mobilenetv2)")
	flag.StringVar(&o.mode, "mode", "layer", "data-residency mode: whole or layer")
	flag.StringVar(&o.profile, "profile", "step", "offered-load profile: step, diurnal, or bursty")
	flag.Int64Var(&o.seed, "seed", 1, "profile PRNG seed; same seed replays identically")
	flag.IntVar(&o.steps, "steps", 180, "replay length in integration steps")
	flag.Float64Var(&o.dt, "dt", 1, "seconds each step integrates")
	flag.BoolVar(&o.feedback, "feedback", true, "couple temperature back into tuning power and throttling (false = static baseline)")
	flag.BoolVar(&o.capacity, "capacity", false, "print the steady-state capacity-under-drift table instead of a replay")
	flag.StringVar(&o.out, "out", "", "write the full JSON time series to this path (\"-\" for stdout)")
	flag.StringVar(&o.metrics, "metrics", "", "write a metrics snapshot to this path (Prometheus text format; .json extension switches to JSON)")
	flag.BoolVar(&o.verbose, "v", false, "log structured progress to stderr")
	flag.BoolVar(&o.version, "version", false, "print build info and exit")
	flag.Parse()

	if o.version {
		fmt.Println(buildinfo.Get().String())
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "spacx-thermal:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	// Validate every flag before simulating so a typo fails fast.
	model, err := dnn.ByName(o.model)
	if err != nil {
		return err
	}
	var mode sim.Mode
	switch o.mode {
	case "whole":
		mode = sim.WholeInference
	case "layer":
		mode = sim.LayerByLayer
	default:
		return fmt.Errorf("unknown mode %q (whole, layer)", o.mode)
	}
	if !o.capacity {
		if _, err := exp.OfferedLoad(o.profile, o.seed, 1); err != nil {
			return err
		}
		if o.steps < 1 {
			return fmt.Errorf("-steps must be >= 1, got %d", o.steps)
		}
		if o.dt <= 0 {
			return fmt.Errorf("-dt must be > 0, got %g", o.dt)
		}
	}

	var reg *obs.Registry
	if o.metrics != "" || o.verbose {
		reg = obs.NewRegistry(obs.NewLogger(os.Stderr, o.verbose))
		exp.SetRecorder(reg)
		defer exp.SetRecorder(nil)
	}

	if o.capacity {
		rows, err := exp.ThermalCapacity(model, mode, nil)
		if err != nil {
			return err
		}
		report.ThermalCapacity(os.Stdout, rows)
		return writeArtifacts(o, reg, func(w io.Writer) error {
			b, err := json.MarshalIndent(rows, "", "  ")
			if err != nil {
				return err
			}
			_, err = w.Write(append(b, '\n'))
			return err
		})
	}

	rep, err := exp.ThermalReplay(exp.ThermalReplayConfig{
		Model:    model,
		Mode:     mode,
		Profile:  o.profile,
		Seed:     o.seed,
		Steps:    o.steps,
		StepSec:  o.dt,
		Feedback: o.feedback,
	})
	if err != nil {
		return err
	}
	report.Thermal(os.Stdout, rep)
	return writeArtifacts(o, reg, rep.WriteJSON)
}

// writeArtifacts flushes the -out JSON, which encode writes, and the
// -metrics snapshot. The JSON is encoded whole before anything is written,
// so an encoding error leaves no -out file.
func writeArtifacts(o options, reg *obs.Registry, encode func(io.Writer) error) error {
	if o.out != "" {
		var b bytes.Buffer
		if err := encode(&b); err != nil {
			return err
		}
		var err error
		if o.out == "-" {
			_, err = os.Stdout.Write(b.Bytes())
		} else {
			err = os.WriteFile(o.out, b.Bytes(), 0o644)
		}
		if err != nil {
			return err
		}
		if o.out != "-" {
			fmt.Fprintf(os.Stderr, "report written to %s\n", o.out)
		}
	}
	if o.metrics != "" {
		if err := reg.WriteFile(o.metrics); err != nil {
			return err
		}
		if o.metrics != "-" {
			fmt.Fprintf(os.Stderr, "metrics written to %s\n", o.metrics)
		}
	}
	if o.verbose {
		reg.LogSummary()
	}
	return nil
}
