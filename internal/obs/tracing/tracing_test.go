package tracing

import (
	"context"
	"sync"
	"testing"
	"time"

	"spacx/internal/obs"
)

func TestNilCollectorAndUntracedContextAreNoOps(t *testing.T) {
	var c *Collector
	ctx, root := c.StartTrace(context.Background(), "serve:simulate")
	if root != nil {
		t.Fatal("nil collector must return a nil root span")
	}
	if ID(ctx) != "" {
		t.Fatalf("nil collector trace id = %q, want empty", ID(ctx))
	}
	ctx2, sp := StartSpan(ctx, "cache:lookup")
	if sp != nil || ctx2 != ctx {
		t.Fatal("StartSpan without a trace must return ctx unchanged and a nil span")
	}
	sp.End()   // nil-safe
	root.End() // nil-safe
	if got := c.List(); got != nil {
		t.Fatalf("nil collector List = %v, want nil", got)
	}
	if _, ok := c.Trace("anything"); ok {
		t.Fatal("nil collector Trace must report not found")
	}
}

func TestTraceIDsAreUniqueAndExposed(t *testing.T) {
	c := NewCollector(8, nil)
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		ctx, root := c.StartTrace(context.Background(), "serve:simulate")
		id := ID(ctx)
		if id == "" || seen[id] {
			t.Fatalf("trace id %q empty or repeated", id)
		}
		seen[id] = true
		root.End()
	}
}

func TestSpanTreeNestsByContext(t *testing.T) {
	c := NewCollector(8, nil)
	ctx, root := c.StartTrace(context.Background(), "serve:simulate")
	cctx, lookup := StartSpan(ctx, "cache:lookup")
	_, engine := StartSpan(cctx, "engine:compute")
	engine.End()
	lookup.End()
	// A sibling of cache:lookup, child of the root.
	_, queue := StartSpan(ctx, "queue:wait")
	queue.End()
	root.End()

	td, ok := c.Trace(ID(ctx))
	if !ok {
		t.Fatal("trace not retained")
	}
	if !td.Complete {
		t.Fatal("ended root must mark the trace complete")
	}
	if len(td.Spans) != 1 || td.Spans[0].Name != "serve:simulate" {
		t.Fatalf("top level = %+v, want the single root span", td.Spans)
	}
	kids := td.Spans[0].Children
	if len(kids) != 2 || kids[0].Name != "cache:lookup" || kids[1].Name != "queue:wait" {
		t.Fatalf("root children = %+v, want [cache:lookup queue:wait] in start order", kids)
	}
	if len(kids[0].Children) != 1 || kids[0].Children[0].Name != "engine:compute" {
		t.Fatalf("cache:lookup children = %+v, want [engine:compute]", kids[0].Children)
	}
}

func TestCollectorBoundsRetainedTraces(t *testing.T) {
	c := NewCollector(2, nil)
	var ids []string
	for i := 0; i < 4; i++ {
		ctx, root := c.StartTrace(context.Background(), "serve:models")
		root.End()
		ids = append(ids, ID(ctx))
	}
	if got := len(c.List()); got != 2 {
		t.Fatalf("retained %d traces, want 2", got)
	}
	if _, ok := c.Trace(ids[0]); ok {
		t.Fatal("oldest trace must be evicted")
	}
	if _, ok := c.Trace(ids[3]); !ok {
		t.Fatal("newest trace must be retained")
	}
	// List is newest first.
	l := c.List()
	if l[0].ID != ids[3] || l[1].ID != ids[2] {
		t.Fatalf("List order = %+v, want newest first", l)
	}
}

func TestSpanCapDropsButStillCounts(t *testing.T) {
	c := NewCollector(2, nil)
	ctx, root := c.StartTrace(context.Background(), "job:sweep")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, sp := StartSpan(ctx, "engine:compute")
		sp.End()
	}
	root.End()
	td, _ := c.Trace(ID(ctx))
	if td.Dropped != 11 { // 10 over the cap plus the root itself
		t.Fatalf("dropped = %d, want 11", td.Dropped)
	}
}

func TestEndIsIdempotentAndFeedsHistogram(t *testing.T) {
	reg := obs.NewRegistry(nil)
	c := NewCollector(4, reg)
	ctx, root := c.StartTrace(context.Background(), "serve:sweep")
	_, sp := StartSpan(ctx, "queue:wait")
	time.Sleep(time.Millisecond)
	sp.End()
	sp.End() // second End must not double-observe
	root.End()

	snap := reg.Snapshot()
	var count uint64
	for _, h := range snap.Histograms {
		if h.Name == "spacx_trace_span_seconds" && h.Labels["span"] == "queue:wait" {
			count = h.Count
		}
	}
	if count != 1 {
		t.Fatalf("queue:wait span observations = %d, want exactly 1", count)
	}
}

func TestOrphanedSpansSurfaceAtTopLevel(t *testing.T) {
	flat := []SpanData{
		{ID: 5, Parent: 99, Name: "orphan", StartUTC: time.Unix(2, 0)},
		{ID: 1, Parent: 0, Name: "root", StartUTC: time.Unix(1, 0)},
	}
	tree := buildTree(flat)
	if len(tree) != 2 || tree[0].Name != "root" || tree[1].Name != "orphan" {
		t.Fatalf("tree = %+v, want root then orphan at top level", tree)
	}
}

// TestConcurrentDistributedJobsNeverPanic hammers the collector with the
// traces of many jobs spread over concurrent goroutines: traces starting
// (FIFO evicting older ones) and spans ending while other goroutines render
// everything retained — rendering must never panic, and rendered trees must
// stay well-formed.
func TestConcurrentDistributedJobsNeverPanic(t *testing.T) {
	c := NewCollector(4, nil) // tiny retention so eviction races rendering
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g%2 == 0 { // new traces force FIFO eviction
					ctx, root := c.StartTrace(context.Background(), "job:sweep")
					_, sp := StartSpan(ctx, "engine:compute")
					sp.End()
					root.End()
				} else { // render everything retained
					for _, s := range c.List() {
						c.Trace(s.ID)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, s := range c.List() {
		td, ok := c.Trace(s.ID)
		if !ok {
			continue
		}
		var walk func([]SpanData) int
		walk = func(spans []SpanData) int {
			n := len(spans)
			for _, sp := range spans {
				n += walk(sp.Children)
			}
			return n
		}
		if n := walk(td.Spans); n > maxSpansPerTrace {
			t.Fatalf("trace %s renders %d spans, cap is %d", s.ID, n, maxSpansPerTrace)
		}
	}
}
