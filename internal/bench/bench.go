// Package bench turns `go test -bench -benchmem` output into
// schema-versioned JSON records (the committed BENCH_<area>.json files) and
// compares a fresh run against a committed baseline, so per-benchmark
// ns/op, B/op, allocs/op, and custom metrics are tracked commit over commit.
//
// The comparison policy mirrors what is actually machine-independent:
// allocs/op and B/op are properties of the code (a steady-state-zero hot
// loop allocates zero everywhere), so allocation and byte regressions fail;
// ns/op depends on the host, so time regressions only warn, and only beyond
// a generous threshold.
//
// A benchmark can honestly report nonzero B/op with zero allocs/op: slab
// carving (internal/dataflow) pays one block allocation per ~hundred calls
// and hands out permanently-owned sub-slices, so the amortized byte cost
// per op stays visible while the amortized allocation count rounds to
// zero. The byte guard keeps that accounting from silently growing.
package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion identifies the record layout; bump on incompatible change.
const SchemaVersion = 1

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmarks, with the
	// trailing -GOMAXPROCS suffix stripped ("BenchmarkRun/simba").
	Name string `json:"name"`
	Runs int64  `json:"runs"`

	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`

	// Metrics holds the custom b.ReportMetric units (e.g.
	// "spacx-latency-norm") so result-bearing benchmarks carry their
	// physics into the trajectory, not just their speed.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Record is the content of one BENCH_<area>.json file.
type Record struct {
	Schema     int         `json:"schema"`
	Area       string      `json:"area"`
	GoVersion  string      `json:"go_version"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Parse reads `go test -bench` output and collects every result line into a
// record for the given area. Non-benchmark lines (PASS, ok, pkg headers) are
// skipped. Parsing is strict about lines that do start with "Benchmark": a
// malformed one is an error, not a silent drop.
func Parse(r io.Reader, area string) (Record, error) {
	rec := Record{Schema: SchemaVersion, Area: area, GoVersion: runtime.Version()}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, err := parseLine(line)
		if err != nil {
			return Record{}, err
		}
		rec.Benchmarks = append(rec.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return Record{}, err
	}
	if len(rec.Benchmarks) == 0 {
		return Record{}, fmt.Errorf("bench: no benchmark lines found in input")
	}
	sort.Slice(rec.Benchmarks, func(i, j int) bool {
		return rec.Benchmarks[i].Name < rec.Benchmarks[j].Name
	})
	return rec, nil
}

// parseLine parses one result line:
//
//	BenchmarkRun/simba-8  200  2474086 ns/op  0 B/op  0 allocs/op  0.359 spacx-latency-norm
//
// i.e. name, iteration count, then (value, unit) pairs.
func parseLine(line string) (Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, fmt.Errorf("bench: malformed benchmark line %q", line)
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip -GOMAXPROCS
		}
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bench: bad iteration count in %q: %w", line, err)
	}
	b := Benchmark{Name: name, Runs: runs}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("bench: bad value %q in %q: %w", f[i], line, err)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}

// ReadFile loads a committed record.
func ReadFile(path string) (Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return Record{}, fmt.Errorf("bench: %s: %w", path, err)
	}
	if rec.Schema != SchemaVersion {
		return Record{}, fmt.Errorf("bench: %s has schema %d, this tool reads %d",
			path, rec.Schema, SchemaVersion)
	}
	return rec, nil
}

// WriteFile stores the record as indented JSON with a trailing newline
// (diff-friendly for commits).
func (rec Record) WriteFile(path string) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Delta compares one benchmark between baseline and current run.
type Delta struct {
	Name string `json:"name"`

	PrevNsPerOp float64 `json:"prev_ns_per_op"`
	CurNsPerOp  float64 `json:"cur_ns_per_op"`
	NsRatio     float64 `json:"ns_ratio"` // cur/prev; 0 when no baseline
	TimeWarn    bool    `json:"time_warn"`

	PrevAllocsPerOp float64 `json:"prev_allocs_per_op"`
	CurAllocsPerOp  float64 `json:"cur_allocs_per_op"`
	AllocsRegressed bool    `json:"allocs_regressed"`

	PrevBytesPerOp float64 `json:"prev_bytes_per_op"`
	CurBytesPerOp  float64 `json:"cur_bytes_per_op"`
	BytesRegressed bool    `json:"bytes_regressed"`
}

// Report is the regression comparison of a run against the committed
// baseline. Warned means some benchmark blew the (machine-dependent) time
// threshold; Failed means allocs/op or B/op regressed, which is
// machine-independent and should fail CI.
type Report struct {
	NsThreshold float64 `json:"ns_threshold"`
	Deltas      []Delta `json:"deltas"`
	Warned      bool    `json:"warned"`
	Failed      bool    `json:"failed"`
}

// Allocation comparisons tolerate a little jitter: allocs/op and B/op are
// averages that can wobble when amortized slab/pool refills land unevenly
// across iterations, so only a clear increase counts as a regression. The
// byte allowance is wider because one slab refill landing inside a short
// benchmark window moves B/op by the carve size.
const (
	allocsFactor = 1.10
	allocsSlack  = 16.0
	bytesFactor  = 1.15
	bytesSlack   = 256.0
)

// Compare matches cur's benchmarks against the baseline by name. ns/op
// beyond nsThreshold (cur/prev; <=0 disables) sets TimeWarn; allocs/op and
// B/op beyond their jitter allowances set AllocsRegressed/BytesRegressed.
// Benchmarks present in only one record get a zero ratio and are never
// flagged — a changed benchmark set is a different suite, not a regression.
func Compare(prev, cur Record, nsThreshold float64) Report {
	prevBy := make(map[string]Benchmark, len(prev.Benchmarks))
	for _, b := range prev.Benchmarks {
		prevBy[b.Name] = b
	}
	rep := Report{NsThreshold: nsThreshold}
	for _, b := range cur.Benchmarks {
		d := Delta{Name: b.Name, CurNsPerOp: b.NsPerOp, CurAllocsPerOp: b.AllocsPerOp, CurBytesPerOp: b.BytesPerOp}
		if p, ok := prevBy[b.Name]; ok {
			d.PrevNsPerOp = p.NsPerOp
			d.PrevAllocsPerOp = p.AllocsPerOp
			d.PrevBytesPerOp = p.BytesPerOp
			if p.NsPerOp > 0 {
				d.NsRatio = b.NsPerOp / p.NsPerOp
				d.TimeWarn = nsThreshold > 0 && d.NsRatio > nsThreshold
			}
			d.AllocsRegressed = b.AllocsPerOp > p.AllocsPerOp*allocsFactor+allocsSlack
			d.BytesRegressed = b.BytesPerOp > p.BytesPerOp*bytesFactor+bytesSlack
		}
		rep.Warned = rep.Warned || d.TimeWarn
		rep.Failed = rep.Failed || d.AllocsRegressed || d.BytesRegressed
		rep.Deltas = append(rep.Deltas, d)
	}
	return rep
}

// String renders the report as a stderr-friendly table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench comparison vs baseline (time warn threshold %.2fx, allocs/bytes fail):\n", r.NsThreshold)
	for _, d := range r.Deltas {
		switch {
		case d.NsRatio == 0:
			fmt.Fprintf(&b, "  %-44s %12.0f ns/op %8.0f allocs/op %8.0f B/op — no baseline\n",
				d.Name, d.CurNsPerOp, d.CurAllocsPerOp, d.CurBytesPerOp)
		default:
			status := ""
			if d.TimeWarn {
				status += " TIME-WARN"
			}
			if d.AllocsRegressed {
				status += " ALLOCS-REGRESSED"
			}
			if d.BytesRegressed {
				status += " BYTES-REGRESSED"
			}
			fmt.Fprintf(&b, "  %-44s %12.0f -> %12.0f ns/op (%.2fx) %8.0f -> %8.0f allocs/op %8.0f -> %8.0f B/op%s\n",
				d.Name, d.PrevNsPerOp, d.CurNsPerOp, d.NsRatio,
				d.PrevAllocsPerOp, d.CurAllocsPerOp, d.PrevBytesPerOp, d.CurBytesPerOp, status)
		}
	}
	return b.String()
}
