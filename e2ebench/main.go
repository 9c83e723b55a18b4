// Command e2ebench is the end-to-end benchmark of spacx: a full
// spacx-report, and spacx-serve answering simulate, sweep and thermal
// requests, each run in-process through the program's public entry points
// with every output checked.
//
//	e2ebench --workload report|simulate|sweep|thermal|all --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics (latency_ms,
// latency_p99_ms, throughput_rps, cpu_ms, heap_mb, setup_s); with --trace 1
// it repeats the workload with spans around every call it makes into the
// program and prints the per-layer metrics, writing the spans to a JSON
// lines file. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. NOTES.md has the workload
// rationale and the measured layer shares.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // span file of a traced run, under .bench_build/spans
}

// outcome is what one workload run measured.
type outcome struct {
	opName    string    // what one op is: "report", "request", "grid", "replay"
	setup     []float64 // seconds of each set-up
	lat       []float64 // ms of each untraced op
	tracedLat []float64 // ms of each traced op
	attempted int
	failed    int
	badSetup  bool     // a set-up's output mismatched its reference
	notes     []string // mismatch and failure lines
	ph        phaseStats
	layers    map[string]layerValue
	log       *spanLog
}

type layerValue struct {
	value float64
	base  string
}

// addFailed counts the ops an output check failed; set-up outputs are
// recorded under negative op numbers and make the run incorrect instead.
func (o *outcome) addFailed(ops map[int]bool) {
	for op := range ops {
		if op < 0 {
			o.badSetup = true
		} else {
			o.failed++
		}
	}
}

// metric is one entry of the result line's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(config) (*outcome, error){
	"report":   runReportWorkload,
	"simulate": runSimulateWorkload,
	"sweep":    runSweepWorkload,
	"thermal":  runThermalWorkload,
}

var workloadOrder = []string{"report", "simulate", "sweep", "thermal"}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "report, simulate, sweep, thermal, or all (each in its own process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := run(cfg, trace); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(cfg config, trace int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", cfg.seconds)
	}
	if cfg.workload == "all" {
		return runAll(cfg, trace)
	}
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (report, simulate, sweep, thermal, all)", cfg.workload)
	}
	if _, err := os.Stat(filepath.Join("internal", "exp", "testdata")); err != nil {
		return fmt.Errorf("golden files: %w", err)
	}
	out, err := fn(cfg)
	if err != nil {
		return err
	}
	res := result{
		Correct:   out.failed == 0 && !out.badSetup,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %d\n", cfg.workload, cfg.seed, cfg.seconds, trace)
	for _, n := range out.notes {
		fmt.Println(n)
	}
	if cfg.trace {
		if err := out.log.write(cfg.spans); err != nil {
			return err
		}
		addCommonLayers(out)
		for _, d := range layerDefs {
			v, ok := out.layers[d.name]
			if !ok {
				v = layerValue{0, "not exercised by this workload"}
			}
			res.Metrics[d.name] = metric{v.value, d.unit}
			fmt.Printf("%-26s %14.6g %-6s %s\n", d.name, v.value, d.unit, v.base)
		}
		fmt.Printf("spans: %s\n", cfg.spans)
	} else {
		endToEnd(out, res.Metrics)
	}
	fmt.Printf("ops: %d %ss attempted, %d failed\n", out.attempted, out.opName, out.failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd derives the end-to-end metrics of an untraced run and prints
// one line each with its unit and sample count.
func endToEnd(out *outcome, m map[string]metric) {
	n := float64(len(out.lat))
	p99, q := tail(out.lat)
	set := func(name, unit string, v float64, how string) {
		m[name] = metric{v, unit}
		fmt.Printf("%-15s %12.6g %-5s %s\n", name, v, unit, how)
	}
	set("latency_ms", "ms", median(out.lat), fmt.Sprintf("median of %d %ss", len(out.lat), out.opName))
	set("latency_p99_ms", "ms", p99, fmt.Sprintf("p%.3g of %d %ss, %.0f beyond it", 100*q, len(out.lat), out.opName, n*(1-q)))
	set("throughput_rps", "req/s", n/out.ph.wallSec, fmt.Sprintf("%d %ss in %.3f s", len(out.lat), out.opName, out.ph.wallSec))
	set("cpu_ms", "ms", 1000*out.ph.cpuSec/n, fmt.Sprintf("user+sys CPU per %s over the timed phase", out.opName))
	set("heap_mb", "MB", out.ph.heapMB, fmt.Sprintf("mean of %d live-heap samples over the timed phase", out.ph.heapSamples))
	set("setup_s", "s", median(out.setup), fmt.Sprintf("median of %d set-ups %v", len(out.setup), roundAll(out.setup)))
}

func roundAll(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%.4g", x)
	}
	return out
}

// runAll runs every workload, each in its own process, and prints their
// result lines followed by one combined line.
func runAll(cfg config, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := map[string]json.RawMessage{}
	failed := false
	for _, w := range workloadOrder {
		cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(cfg.seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("workload %s: %w", w, err)
		}
		var last string
		sc := bufio.NewScanner(strings.NewReader(string(stdout)))
		for sc.Scan() {
			fmt.Println(sc.Text())
			last = sc.Text()
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			return fmt.Errorf("workload %s result: %w", w, err)
		}
		failed = failed || !r.Correct
		all[w] = json.RawMessage(last)
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed {
		return errors.New("a workload reported failed ops")
	}
	return nil
}
