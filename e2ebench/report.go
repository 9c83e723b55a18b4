package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// reportPackets is spacx-report's default -fig16-packets.
	reportPackets = 20000
	// reportSetups is how many cold reports the set-up median is taken over.
	reportSetups = 9
)

// reportRef returns the reference bytes of a report output key: a driver's
// golden file (internal/exp/testdata) where its inputs match the golden
// run, the stored 20 000-packet fig16 rows, or the stored rendered text.
// The two stored references were generated at commit a804892 by
// `go test -run TestReference -update` in this directory.
func reportRef(root string) func(key string) ([]byte, error) {
	return func(key string) ([]byte, error) {
		switch key {
		case "fig16":
			return os.ReadFile(filepath.Join(root, "e2ebench", "testdata", "fig16-20000.golden.json"))
		case "text":
			return os.ReadFile(filepath.Join(root, "e2ebench", "testdata", "report.txt"))
		}
		return os.ReadFile(filepath.Join(root, "internal", "exp", "testdata", key+".golden.json"))
	}
}

// goldenBytes marshals driver rows the way internal/exp/golden_test.go does.
func goldenBytes(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// recordReport stores one report's rendered text and every driver's rows
// under op for the after-phase check.
func recordReport(d *digests, op int, text []byte, res []reportResult) error {
	d.add("text", op, text)
	for _, r := range res {
		b, err := goldenBytes(r.rows)
		if err != nil {
			return err
		}
		d.add(r.name, op, b)
	}
	return nil
}

// coldReport runs one full report after exp.ResetCaches and returns its
// wall time, excluding the reset.
func coldReport(buf *bytes.Buffer, t *opTrace) ([]reportResult, time.Duration, error) {
	resetCaches()
	buf.Reset()
	start := time.Now()
	res, err := runReport(buf, reportPackets, t)
	return res, time.Since(start), err
}

// runReportWorkload: one op is one cold full spacx-report with default
// flags, rendered into a buffer; one caller. Set-up is the process's first
// cold report, which also builds the event-simulator station pools later
// reports reuse; it is repeated and the median reported.
func runReportWorkload(cfg config) (*outcome, error) {
	reportDefaults()
	out := &outcome{opName: "report", layers: map[string]layerValue{}}
	d := newDigests()
	var buf bytes.Buffer
	op := 0
	for i := 0; i < reportSetups; i++ {
		runtime.GC()
		res, took, err := coldReport(&buf, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up report: %w", err)
		}
		out.setup = append(out.setup, took.Seconds())
		if err := recordReport(d, -1, buf.Bytes(), res); err != nil {
			return nil, err
		}
	}

	if cfg.trace {
		out.log = &spanLog{}
	}
	var memo float64
	ph := beginPhase()
	deadline := ph.start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for ; time.Now().Before(deadline); op++ {
		var t *opTrace
		if op%2 == 1 {
			t = out.log.begin("op:report")
		}
		res, took, err := coldReport(&buf, t)
		t.finish()
		out.attempted++
		if err != nil {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("op %d: %v", op, err))
			continue
		}
		if t != nil {
			out.tracedLat = append(out.tracedLat, ms(took))
			memo += float64(memoEntries())
		} else {
			out.lat = append(out.lat, ms(took))
		}
		if err := recordReport(d, op, buf.Bytes(), res); err != nil {
			return nil, err
		}
	}
	out.ph = ph.end()

	failed, lines, err := d.check(1, reportRef("."))
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, lines...)
	out.addFailed(failed)
	if !cfg.trace {
		return out, nil
	}

	n := float64(len(out.tracedLat))
	out.layers["exp.memo_entries"] = layerValue{memo / n, "exp.CacheSize() after each traced report"}
	var packets int64
	var probe []float64
	for i := 0; i < 3; i++ {
		p, took, err := eventsimProbe(reportPackets)
		if err != nil {
			return nil, err
		}
		packets = p
		probe = append(probe, float64(took.Nanoseconds()))
	}
	out.layers["eventsim.packets"] = layerValue{float64(packets), "per report: packets injected by the 12 fig16 runs"}
	out.layers["eventsim.ns_per_packet"] = layerValue{median(probe) / float64(packets),
		"median of 3 exp.NetworkProbe passes over the 12 fig16 pairs after exp.ResetCaches"}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
