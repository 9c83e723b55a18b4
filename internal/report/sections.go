package report

import (
	"fmt"
	"io"
	"slices"

	"spacx/internal/exp"
	"spacx/internal/network/spacxnet"
)

// Section is one block of spacx-report's output.
type Section struct {
	// Names are the -only values that select the section: its own name
	// first, then any alias.
	Names []string
	// Drivers are the exp.Artifacts rows the section renders, in order.
	Drivers []string
	// Text renders the drivers' results, one per Drivers entry.
	Text func(w io.Writer, rows []any)
	// CSV renders them as CSV; nil for a text-only section.
	CSV func(w io.Writer, rows []any) error
}

// Sections is spacx-report's output, in render order. Every exp.Artifacts
// row but thermal is rendered here; spacx-thermal renders replays (Thermal).
var Sections = []Section{
	one("table1", Table1, nil),
	one("table2", Table2, nil),
	one("table34", Table3And4, nil),
	one("fig13", PerLayer, PerLayerCSV, "fig14"),
	one("fig15", overall("Figure 15 — whole-inference execution time and energy (normalized to Simba)"), OverallCSV),
	one("fig16", Fig16, Fig16CSV),
	one("fig17", overall("Figure 17 — dataflows on the SPACX architecture (normalized to WS)"), OverallCSV),
	one("fig18", overall("Figure 18 — bandwidth allocation on/off (normalized to Simba)"), OverallCSV),
	one("fig19", powerSurface("Figure 19 — SPACX network power, moderate parameters"), PowerSurfaceCSV),
	one("fig20", powerSurface("Figure 20 — SPACX network power, aggressive parameters"), PowerSurfaceCSV),
	{
		Names:   []string{"fig21"},
		Drivers: []string{"fig21a", "fig21b"},
		Text:    func(w io.Writer, rows []any) { Fig21(w, rows[0].([]exp.Fig21aRow), rows[1].([]exp.Fig21b)) },
	},
	one("fig22", Fig22, Fig22CSV),
	one("ablation", Ablation, nil),
	one("tradeoff", GranularityTradeoff, nil),
	one("adaptive", Adaptive, nil),
	one("batch", BatchScaling, nil),
	one("engines", Engines, nil),
	one("area", Area, nil),
}

// one is the section that renders the one driver it is named after with
// text and, unless csv is nil, csv; aliases are further -only values.
func one[T any](name string, text func(io.Writer, T), csv func(io.Writer, T) error, aliases ...string) Section {
	s := Section{
		Names:   append([]string{name}, aliases...),
		Drivers: []string{name},
		Text:    func(w io.Writer, rows []any) { text(w, rows[0].(T)) },
	}
	if csv != nil {
		s.CSV = func(w io.Writer, rows []any) error { return csv(w, rows[0].(T)) }
	}
	return s
}

func overall(title string) func(io.Writer, []exp.AccelRow) {
	return func(w io.Writer, rows []exp.AccelRow) { Overall(w, title, rows) }
}

func powerSurface(title string) func(io.Writer, []spacxnet.PowerPoint) {
	return func(w io.Writer, pts []spacxnet.PowerPoint) { PowerSurface(w, title, pts) }
}

// Evaluate runs the section's drivers from exp.Artifacts, in order.
func (s Section) Evaluate(packets int) ([]any, error) {
	rows := make([]any, len(s.Drivers))
	for i, name := range s.Drivers {
		j := slices.IndexFunc(exp.Artifacts, func(a exp.Artifact) bool { return a.Name == name })
		if j < 0 {
			return nil, fmt.Errorf("report: section %s renders unknown driver %q", s.Names[0], name)
		}
		v, err := exp.Artifacts[j].Run(packets)
		if err != nil {
			return nil, err
		}
		rows[i] = v
	}
	return rows, nil
}
