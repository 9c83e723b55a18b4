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

// TestGolden snapshots every Artifacts row to testdata/<name>.golden.json; a
// diff means an experiment's numbers changed and the change must be reviewed
// (and -update re-run) deliberately.
func TestGolden(t *testing.T) {
	for _, a := range Artifacts {
		t.Run(a.Name, func(t *testing.T) {
			v, err := a.Run(goldenPackets)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenBytes(t, v)
			path := filepath.Join("testdata", a.Name+".golden.json")
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
					a.Name, path, goldenDiff(want, got))
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
	for _, a := range Artifacts {
		t.Run(a.Name, func(t *testing.T) {
			SetParallelism(1)
			v, err := a.Run(goldenPackets)
			if err != nil {
				t.Fatal(err)
			}
			seq := goldenBytes(t, v)

			SetParallelism(8)
			v, err = a.Run(goldenPackets)
			if err != nil {
				t.Fatal(err)
			}
			par := goldenBytes(t, v)

			if !bytes.Equal(seq, par) {
				t.Errorf("%s differs between -j 1 and -j 8\n%s", a.Name, goldenDiff(seq, par))
			}
		})
	}
}
