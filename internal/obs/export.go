package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// WriteJSON writes the registry state as an indented JSON Snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus writes the registry state in the Prometheus text exposition
// format (version 0.0.4, promtool-compatible): one # TYPE header per metric
// name, histograms expanded into cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	bw := bufio.NewWriter(w)

	// Group series by metric name so each name gets exactly one TYPE line.
	type entry struct {
		kind string
		emit func()
	}
	byName := map[string][]entry{}
	var names []string
	addEntry := func(name, kind string, emit func()) {
		if _, ok := byName[name]; !ok {
			names = append(names, name)
		}
		byName[name] = append(byName[name], entry{kind: kind, emit: emit})
	}

	for _, p := range snap.Counters {
		p := p
		addEntry(p.Name, "counter", func() {
			fmt.Fprintf(bw, "%s %s\n", promSeries(p.Name, p.Labels, nil), formatFloat(p.Value))
		})
	}
	for _, p := range snap.Gauges {
		p := p
		addEntry(p.Name, "gauge", func() {
			fmt.Fprintf(bw, "%s %s\n", promSeries(p.Name, p.Labels, nil), formatFloat(p.Value))
		})
	}
	for _, h := range snap.Histograms {
		h := h
		addEntry(h.Name, "histogram", func() {
			for _, b := range h.Buckets {
				le := Label{Key: "le", Value: formatFloat(b.LE)}
				fmt.Fprintf(bw, "%s %d\n", promSeries(h.Name+"_bucket", h.Labels, &le), b.Count)
			}
			inf := Label{Key: "le", Value: "+Inf"}
			fmt.Fprintf(bw, "%s %d\n", promSeries(h.Name+"_bucket", h.Labels, &inf), h.Count)
			fmt.Fprintf(bw, "%s %s\n", promSeries(h.Name+"_sum", h.Labels, nil), formatFloat(h.Sum))
			fmt.Fprintf(bw, "%s %d\n", promSeries(h.Name+"_count", h.Labels, nil), h.Count)
		})
	}

	sort.Strings(names)
	for _, name := range names {
		entries := byName[name]
		fmt.Fprintf(bw, "# TYPE %s %s\n", sanitizeName(name), entries[0].kind)
		for _, e := range entries {
			e.emit()
		}
	}
	return bw.Flush()
}

// WriteFile writes the registry to path: JSON when the path ends in .json,
// Prometheus text format otherwise. The path "-" writes the Prometheus text
// to stdout instead of a file.
func (r *Registry) WriteFile(path string) error {
	if path == "-" {
		if err := r.WritePrometheus(os.Stdout); err != nil {
			return fmt.Errorf("obs: write metrics to stdout: %w", err)
		}
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: create metrics file %s: %w", path, err)
	}
	if strings.HasSuffix(path, ".json") {
		err = r.WriteJSON(f)
	} else {
		err = r.WritePrometheus(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("obs: write metrics file %s: %w", path, err)
	}
	return nil
}

// LogSummary emits one end-of-run Info line per histogram series with its
// count, mean, and interpolated p50/p95/p99 — the -v tail that turns a run's
// latency histograms into a readable summary without a scrape.
func (r *Registry) LogSummary() {
	for _, h := range r.Snapshot().Histograms {
		attrs := []any{
			"name", h.Name,
			"count", h.Count,
			"mean", h.Mean(),
			"p50", h.Quantile(0.50),
			"p95", h.Quantile(0.95),
			"p99", h.Quantile(0.99),
			"max", h.Max,
		}
		for k, v := range h.Labels {
			attrs = append(attrs, k, v)
		}
		r.logger.Info("histogram summary", attrs...)
	}
}

// promSeries renders name{labels...} with the optional extra label appended
// (used for the histogram "le" bound).
func promSeries(name string, labels map[string]string, extra *Label) string {
	var b strings.Builder
	b.WriteString(sanitizeName(name))
	if len(labels) == 0 && extra == nil {
		return b.String()
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteByte('{')
	first := true
	for _, k := range keys {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, `%s="%s"`, sanitizeName(k), escapeLabel(labels[k]))
	}
	if extra != nil {
		if !first {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extra.Key, escapeLabel(extra.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// sanitizeName maps arbitrary metric/label names onto the Prometheus
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeName(name string) string {
	ok := true
	for i, c := range name {
		if !validNameRune(c, i) {
			ok = false
			break
		}
	}
	if ok && name != "" {
		return name
	}
	var b strings.Builder
	for i, c := range name {
		if validNameRune(c, i) {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

func validNameRune(c rune, pos int) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return pos > 0 && c >= '0' && c <= '9'
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
