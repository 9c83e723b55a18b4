package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/exp -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenPackets keeps the fig16 event simulations short; the seeds are fixed,
// so the rows are deterministic at any packet count.
const goldenPackets = 2000

// goldenDrivers is every figure/table driver, in report order. Each run is
// snapshotted to testdata/<name>.golden.json; a diff means an experiment's
// numbers changed and the change must be reviewed (and -update re-run)
// deliberately.
var goldenDrivers = []struct {
	name string
	run  func() (any, error)
}{
	{"table1", func() (any, error) { return Table1() }},
	{"table2", func() (any, error) { return Table2(), nil }},
	{"table34", func() (any, error) { return Table3And4() }},
	{"fig13", func() (any, error) { return Fig13And14() }},
	{"fig15", func() (any, error) { return Fig15() }},
	{"fig16", func() (any, error) { return Fig16(goldenPackets) }},
	{"fig17", func() (any, error) { return Fig17() }},
	{"fig18", func() (any, error) { return Fig18() }},
	{"fig19", func() (any, error) { return Fig19() }},
	{"fig20", func() (any, error) { return Fig20() }},
	{"fig21a", func() (any, error) { return Fig21a() }},
	{"fig21b", func() (any, error) { return Fig21bBreakdown() }},
	{"fig22", func() (any, error) { return Fig22() }},
	{"ablation", func() (any, error) { return AblationBroadcast() }},
	{"tradeoff", func() (any, error) { return GranularityTradeoff() }},
	{"adaptive", func() (any, error) { return AdaptiveGranularity() }},
	{"batch", func() (any, error) { return BatchScaling() }},
	{"engines", func() (any, error) { return EngineAgreement() }},
	{"area", func() (any, error) { return Area() }},
	{"thermal", func() (any, error) { return ThermalGolden() }},
}

// goldenBytes marshals driver rows the same way every time: indented JSON
// with a trailing newline. encoding/json renders float64 with the shortest
// round-trip representation, so equal bytes means bit-identical values.
func goldenBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestGolden(t *testing.T) {
	for _, d := range goldenDrivers {
		t.Run(d.name, func(t *testing.T) {
			v, err := d.run()
			if err != nil {
				t.Fatal(err)
			}
			got := goldenBytes(t, v)
			path := filepath.Join("testdata", d.name+".golden.json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s diverges from %s (run with -update if the change is intended)\n%s",
					d.name, path, goldenDiff(want, got))
			}
		})
	}
}

// goldenDiff points at the first differing line so a regression is readable
// without an external diff tool.
func goldenDiff(want, got []byte) string {
	w, g := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("first difference at line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}

// TestGoldenParallelMatchesSequential is the determinism proof the engine is
// built around: every driver must produce byte-identical output with one
// worker and with many.
func TestGoldenParallelMatchesSequential(t *testing.T) {
	defer SetParallelism(0)
	for _, d := range goldenDrivers {
		t.Run(d.name, func(t *testing.T) {
			SetParallelism(1)
			v, err := d.run()
			if err != nil {
				t.Fatal(err)
			}
			seq := goldenBytes(t, v)

			SetParallelism(8)
			v, err = d.run()
			if err != nil {
				t.Fatal(err)
			}
			par := goldenBytes(t, v)

			if !bytes.Equal(seq, par) {
				t.Errorf("%s differs between -j 1 and -j 8\n%s", d.name, goldenDiff(seq, par))
			}
		})
	}
}
