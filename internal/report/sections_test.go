package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spacx/internal/exp"
)

// unrendered names the exp.Artifacts rows that no section renders, each with
// its reason.
var unrendered = map[string]string{
	"thermal": "a thermal replay is a time series that spacx-thermal renders (Thermal), not a spacx-report section",
}

// TestSectionsCoverArtifacts ties the artifact table to its golden snapshots
// and to spacx-report's sections: every exp.Artifacts row has a golden file
// and every golden file a row; every driver a section names is a row; every
// row is rendered by a section or exempt with a stated reason. Each section
// is then rendered once from real driver output, as text and, where it has
// one, as CSV, so a renderer wired to another driver's row type fails here
// rather than in a user's run.
func TestSectionsCoverArtifacts(t *testing.T) {
	testdata := filepath.Join("..", "exp", "testdata")
	rows := map[string]bool{}
	for _, a := range exp.Artifacts {
		if rows[a.Name] {
			t.Errorf("exp.Artifacts has two %s rows", a.Name)
		}
		rows[a.Name] = true
		if _, err := os.Stat(filepath.Join(testdata, a.Name+".golden.json")); err != nil {
			t.Errorf("row %s has no golden file: %v", a.Name, err)
		}
	}
	goldens, err := filepath.Glob(filepath.Join(testdata, "*.golden.json"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no golden files under %s (%v)", testdata, err)
	}
	for _, g := range goldens {
		if name := strings.TrimSuffix(filepath.Base(g), ".golden.json"); !rows[name] {
			t.Errorf("golden file %s has no exp.Artifacts row", g)
		}
	}

	rendered, names := map[string]bool{}, map[string]bool{}
	for _, s := range Sections {
		for _, n := range s.Names {
			if names[n] {
				t.Errorf("two sections answer -only %s", n)
			}
			names[n] = true
		}
		for _, d := range s.Drivers {
			if !rows[d] {
				t.Errorf("section %s renders %q, which is not an exp.Artifacts row", s.Names[0], d)
			}
			rendered[d] = true
		}
	}
	for _, a := range exp.Artifacts {
		reason, exempt := unrendered[a.Name]
		if rendered[a.Name] && exempt {
			t.Errorf("row %s is rendered by a section but exempt (%s)", a.Name, reason)
		}
		if !rendered[a.Name] && !exempt {
			t.Errorf("row %s is rendered by no section and has no stated exemption", a.Name)
		}
	}

	for _, s := range Sections {
		t.Run(s.Names[0], func(t *testing.T) {
			rows, err := s.Evaluate(200)
			if err != nil {
				t.Fatal(err)
			}
			var text strings.Builder
			s.Text(&text, rows)
			if text.Len() == 0 {
				t.Error("text renderer wrote nothing")
			}
			if s.CSV == nil {
				return
			}
			var csv strings.Builder
			if err := s.CSV(&csv, rows); err != nil {
				t.Fatal(err)
			}
			if strings.Count(csv.String(), "\n") < 2 {
				t.Errorf("CSV renderer wrote no data row:\n%s", csv.String())
			}
		})
	}
}
