package exp

// Artifact is one driver of the paper's evaluation. Name keys its golden
// snapshot (testdata/<name>.golden.json) and the report sections that
// render it; Run evaluates it. Only fig16 reads packets, the packets per
// event-simulation run.
type Artifact struct {
	Name string
	Run  func(packets int) (any, error)
}

// Artifacts is every driver, in report order: the one list of the paper's
// artifacts. spacx-report renders it through report.Sections, and the
// golden tests snapshot every row.
var Artifacts = []Artifact{
	{"table1", func(int) (any, error) { return Table1() }},
	{"table2", func(int) (any, error) { return Table2(), nil }},
	{"table34", func(int) (any, error) { return Table3And4() }},
	{"fig13", func(int) (any, error) { return Fig13And14() }},
	{"fig15", func(int) (any, error) { return Fig15() }},
	{"fig16", func(packets int) (any, error) { return Fig16(packets) }},
	{"fig17", func(int) (any, error) { return Fig17() }},
	{"fig18", func(int) (any, error) { return Fig18() }},
	{"fig19", func(int) (any, error) { return Fig19() }},
	{"fig20", func(int) (any, error) { return Fig20() }},
	{"fig21a", func(int) (any, error) { return Fig21a() }},
	{"fig21b", func(int) (any, error) { return Fig21bBreakdown() }},
	{"fig22", func(int) (any, error) { return Fig22() }},
	{"ablation", func(int) (any, error) { return AblationBroadcast() }},
	{"tradeoff", func(int) (any, error) { return GranularityTradeoff() }},
	{"adaptive", func(int) (any, error) { return AdaptiveGranularity() }},
	{"batch", func(int) (any, error) { return BatchScaling() }},
	{"engines", func(int) (any, error) { return EngineAgreement() }},
	{"area", func(int) (any, error) { return Area() }},
	{"thermal", func(int) (any, error) { return ThermalGolden() }},
}
