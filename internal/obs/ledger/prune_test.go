package ledger

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func prunePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "runs.jsonl")
}

func TestPruneKeepsNewestN(t *testing.T) {
	path := prunePath(t)
	for i := 0; i < 5; i++ {
		rec := New("spacx-report", "fig13", i+1) // Jobs field marks the order
		if err := Append(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	kept, dropped, err := Prune(path, SchemaVersion, 2)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 || dropped != 3 {
		t.Fatalf("Prune = (%d kept, %d dropped), want (2, 3)", kept, dropped)
	}
	recs, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Jobs != 4 || recs[1].Jobs != 5 {
		t.Fatalf("surviving records = %+v, want the newest two", recs)
	}
}

func TestPruneDropsSchemaMismatchedAndUnparsableLines(t *testing.T) {
	path := prunePath(t)
	if err := Append(path, New("spacx-report", "fig19", 1)); err != nil {
		t.Fatal(err)
	}
	// A line from a hypothetical newer binary, and a corrupted line.
	if err := AppendLine(path, map[string]any{"schema": SchemaVersion + 7, "cmd": "future"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{not json}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	kept, dropped, err := Prune(path, SchemaVersion, 10)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 1 || dropped != 2 {
		t.Fatalf("Prune = (%d kept, %d dropped), want (1, 2)", kept, dropped)
	}
	recs, err := Read(path)
	if err != nil {
		t.Fatalf("pruned file must read cleanly: %v", err)
	}
	if len(recs) != 1 || recs[0].Cmd != "spacx-report" {
		t.Fatalf("surviving records = %+v", recs)
	}
}

func TestPruneNoOpCases(t *testing.T) {
	// Missing file.
	if kept, dropped, err := Prune(prunePath(t), SchemaVersion, 5); kept != 0 || dropped != 0 || err != nil {
		t.Fatalf("missing file Prune = (%d, %d, %v), want (0, 0, nil)", kept, dropped, err)
	}
	// keep <= 0 disables pruning.
	path := prunePath(t)
	if err := Append(path, New("spacx-report", "", 1)); err != nil {
		t.Fatal(err)
	}
	if kept, dropped, err := Prune(path, SchemaVersion, 0); kept != 0 || dropped != 0 || err != nil {
		t.Fatalf("keep=0 Prune = (%d, %d, %v), want no-op", kept, dropped, err)
	}
	// Nothing to drop: the file is untouched (same mtime-free check via size).
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if kept, dropped, err := Prune(path, SchemaVersion, 5); kept != 1 || dropped != 0 || err != nil {
		t.Fatalf("clean Prune = (%d, %d, %v), want (1, 0, nil)", kept, dropped, err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() != after.Size() {
		t.Fatal("clean prune must not rewrite the file")
	}
}

func TestJobRecordsRoundTripNewestLineWins(t *testing.T) {
	path := prunePath(t)
	now := time.Now().UTC()
	for _, state := range []string{"pending", "running", "done"} {
		if err := AppendJob(path, JobRecord{
			Schema: JobSchemaVersion, ID: "j000000000001", Kind: "sweep",
			State: state, TimeUTC: now, Created: now,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := AppendLine(path, map[string]any{"schema": JobSchemaVersion + 5, "id": "jfuture"}); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := ReadJobs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].State != "done" {
		t.Fatalf("records = %+v, want one job at its newest state", recs)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1 schema-mismatched line", skipped)
	}
}

// TestAppendPruneConcurrent hammers one ledger path with concurrent appends
// and prunes (run under -race by `make obs-race` and its CI step). Every
// appender interleaves real records with schema-mismatched chaff so each
// prune pass actually rewrites the file; without the per-path lock in
// lockPath, an append landing inside a prune's read → temp → rename window
// is renamed over and silently lost.
func TestAppendPruneConcurrent(t *testing.T) {
	path := prunePath(t)
	const writers, perWriter = 4, 50

	stop := make(chan struct{})
	var pruner sync.WaitGroup
	pruner.Add(1)
	go func() {
		defer pruner.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := Prune(path, SchemaVersion, 1<<30); err != nil {
				t.Errorf("concurrent prune: %v", err)
				return
			}
		}
	}()

	var appenders sync.WaitGroup
	for w := 0; w < writers; w++ {
		appenders.Add(1)
		go func(w int) {
			defer appenders.Done()
			for i := 0; i < perWriter; i++ {
				if err := Append(path, New("spacx-report", fmt.Sprintf("t%d-%d", w, i), 1)); err != nil {
					t.Errorf("concurrent append: %v", err)
					return
				}
				// Prunable chaff: forces the racing prune to rewrite.
				if err := AppendLine(path, map[string]int{"schema": -1}); err != nil {
					t.Errorf("append chaff: %v", err)
					return
				}
			}
		}(w)
	}
	appenders.Wait()
	close(stop)
	pruner.Wait()

	if _, _, err := Prune(path, SchemaVersion, 1<<30); err != nil {
		t.Fatalf("final prune: %v", err)
	}
	recs, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*perWriter {
		t.Fatalf("%d records survived, want %d — appends lost to a racing prune rewrite",
			len(recs), writers*perWriter)
	}
	targets := map[string]bool{}
	for _, r := range recs {
		if targets[r.Target] {
			t.Fatalf("record %q appears twice", r.Target)
		}
		targets[r.Target] = true
	}
}
