// Package tracing is the request-scoped tracing layer of the serving stack:
// lightweight span trees with a process-unique trace id per request or job,
// propagated through context.Context across every layer a request crosses —
// HTTP handler, admission queue, worker pool, engine phase, simulator
// run — and collected into a bounded in-memory store the observability
// server exposes as /traces and /traces/{id}. Span durations additionally
// land in the metrics registry as per-span-name histograms
// (spacx_trace_span_seconds{span="..."}), so aggregate queue wait vs. cache
// lookup vs. engine compute time is visible on /metrics while individual
// requests stay attributable by trace id.
//
// This package is distinct from internal/trace, which renders packet-level
// chrome://tracing schedules of a simulated network; tracing here is about
// the service's own request path, not the simulated hardware.
//
// Everything is nil-safe: a nil *Collector starts no traces, and StartSpan
// on a context without a trace returns a nil *Span whose End is a no-op, so
// instrumented packages call unconditionally and untraced paths stay cheap
// (one context value lookup).
package tracing

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spacx/internal/obs"
)

// maxSpansPerTrace bounds one trace's span count; spans past the cap are
// timed (they still feed the histograms) but not retained in the tree.
const maxSpansPerTrace = 512

// procID is the per-process trace-id prefix and the counter suffix makes
// every id process-unique, so ids from two server processes never collide.
var (
	procID      = newProcID()
	traceSerial atomic.Int64
)

func newProcID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Degraded but still distinct per process start in practice.
		return fmt.Sprintf("%08x", time.Now().UnixNano()&0xffffffff)
	}
	return hex.EncodeToString(b[:])
}

// SpanData is one completed span as exported by /traces/{id}.
type SpanData struct {
	ID          int64      `json:"id"`
	Parent      int64      `json:"parent,omitempty"` // 0 = child of the root
	Name        string     `json:"name"`
	StartUTC    time.Time  `json:"start_utc"`
	DurationSec float64    `json:"duration_sec"`
	Children    []SpanData `json:"children,omitempty"`
}

// TraceData is one exported trace: the root identity plus the span tree.
type TraceData struct {
	ID          string     `json:"id"`
	Name        string     `json:"name"`
	StartUTC    time.Time  `json:"start_utc"`
	DurationSec float64    `json:"duration_sec"`
	Complete    bool       `json:"complete"`
	Dropped     int        `json:"dropped_spans,omitempty"`
	Spans       []SpanData `json:"spans"`
}

// TraceSummary is one /traces index row.
type TraceSummary struct {
	ID          string    `json:"id"`
	Name        string    `json:"name"`
	StartUTC    time.Time `json:"start_utc"`
	DurationSec float64   `json:"duration_sec"`
	Spans       int       `json:"spans"`
	Complete    bool      `json:"complete"`
}

// trace is the mutable collector-side state of one trace.
type trace struct {
	id    string
	name  string
	start time.Time

	mu       sync.Mutex
	nextSpan int64
	spans    []SpanData // completed, in end order
	dropped  int
	endUTC   time.Time
	done     bool
}

// Collector stores the most recent traces, bounded FIFO by start order, and
// feeds span durations into a metrics recorder.
type Collector struct {
	rec obs.Recorder
	max int

	mu     sync.Mutex
	traces map[string]*trace
	order  []string // start order; front = oldest
}

// NewCollector keeps the last max traces (<= 0 means 256) and observes span
// durations into rec (nil means none).
func NewCollector(max int, rec obs.Recorder) *Collector {
	if max <= 0 {
		max = 256
	}
	if rec == nil {
		rec = obs.Nop()
	}
	return &Collector{rec: rec, max: max, traces: map[string]*trace{}}
}

// ctxKey carries the active trace and the current parent span id.
type ctxKey struct{}

type ctxVal struct {
	c      *Collector
	t      *trace
	parent int64
}

// Span is one open span; End completes it. The nil *Span is a valid no-op.
type Span struct {
	c      *Collector
	t      *trace
	id     int64
	parent int64
	name   string
	start  time.Time
	root   bool
	ended  atomic.Bool
}

// StartTrace begins a new trace named name, registers it with the collector,
// and returns a context carrying it plus the open root span. A nil Collector
// returns ctx unchanged and a nil span.
func (c *Collector) StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	if c == nil {
		return ctx, nil
	}
	now := time.Now()
	t := &trace{
		id:    fmt.Sprintf("%s-%06d", procID, traceSerial.Add(1)),
		name:  name,
		start: now,
	}
	c.mu.Lock()
	c.traces[t.id] = t
	c.order = append(c.order, t.id)
	for len(c.order) > c.max {
		delete(c.traces, c.order[0])
		c.order = c.order[1:]
	}
	c.mu.Unlock()
	sp := &Span{c: c, t: t, id: t.newSpanID(), name: name, start: now, root: true}
	return context.WithValue(ctx, ctxKey{}, ctxVal{c: c, t: t, parent: sp.id}), sp
}

func (t *trace) newSpanID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSpan++
	return t.nextSpan
}

// StartSpan opens a child span of the context's current span. Without a
// trace in ctx it returns ctx unchanged and a nil span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	v, ok := ctx.Value(ctxKey{}).(ctxVal)
	if !ok {
		return ctx, nil
	}
	sp := &Span{c: v.c, t: v.t, id: v.t.newSpanID(), parent: v.parent, name: name, start: time.Now()}
	return context.WithValue(ctx, ctxKey{}, ctxVal{c: v.c, t: v.t, parent: sp.id}), sp
}

// ID returns the trace id carried by ctx ("" when untraced).
func ID(ctx context.Context) string {
	if v, ok := ctx.Value(ctxKey{}).(ctxVal); ok {
		return v.t.id
	}
	return ""
}

// End completes the span: its duration is observed into the collector's
// span histogram and, capacity permitting, the span joins the trace's tree.
// End is idempotent and nil-safe.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	now := time.Now()
	dur := now.Sub(s.start)
	s.c.rec.Observe("spacx_trace_span_seconds", dur.Seconds(), obs.Label{Key: "span", Value: s.name})
	t := s.t
	t.mu.Lock()
	if len(t.spans) < maxSpansPerTrace {
		t.spans = append(t.spans, SpanData{
			ID:          s.id,
			Parent:      s.parent,
			Name:        s.name,
			StartUTC:    s.start.UTC(),
			DurationSec: dur.Seconds(),
		})
	} else {
		t.dropped++
	}
	if s.root {
		t.done = true
		t.endUTC = now.UTC()
	}
	t.mu.Unlock()
}

// Trace exports the span tree of one trace id.
func (c *Collector) Trace(id string) (TraceData, bool) {
	if c == nil {
		return TraceData{}, false
	}
	c.mu.Lock()
	t, ok := c.traces[id]
	c.mu.Unlock()
	if !ok {
		return TraceData{}, false
	}
	t.mu.Lock()
	td := TraceData{
		ID:       t.id,
		Name:     t.name,
		StartUTC: t.start.UTC(),
		Complete: t.done,
		Dropped:  t.dropped,
	}
	if t.done {
		td.DurationSec = t.endUTC.Sub(t.start.UTC()).Seconds()
	} else {
		td.DurationSec = time.Since(t.start).Seconds()
	}
	flat := append([]SpanData(nil), t.spans...)
	t.mu.Unlock()
	td.Spans = buildTree(flat)
	return td, true
}

// buildTree nests the flat span list under its parents; spans are sorted by
// start time at every level. The root span (id 1) anchors the tree; spans
// whose parent was dropped surface at the top level rather than vanish.
func buildTree(flat []SpanData) []SpanData {
	if len(flat) == 0 {
		return nil
	}
	have := make(map[int64]bool, len(flat))
	for _, s := range flat {
		have[s.ID] = true
	}
	children := map[int64][]SpanData{}
	var roots []SpanData
	for _, s := range flat {
		if s.Parent != 0 && have[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var attach func(s SpanData) SpanData
	attach = func(s SpanData) SpanData {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUTC.Before(kids[j].StartUTC) })
		for _, k := range kids {
			s.Children = append(s.Children, attach(k))
		}
		return s
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].StartUTC.Before(roots[j].StartUTC) })
	out := make([]SpanData, 0, len(roots))
	for _, r := range roots {
		out = append(out, attach(r))
	}
	return out
}

// List summarizes the retained traces, newest first.
func (c *Collector) List() []TraceSummary {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	ids := append([]string(nil), c.order...)
	c.mu.Unlock()
	out := make([]TraceSummary, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		c.mu.Lock()
		t, ok := c.traces[ids[i]]
		c.mu.Unlock()
		if !ok {
			continue
		}
		t.mu.Lock()
		ts := TraceSummary{
			ID: t.id, Name: t.name, StartUTC: t.start.UTC(),
			Spans: len(t.spans), Complete: t.done,
		}
		if t.done {
			ts.DurationSec = t.endUTC.Sub(t.start.UTC()).Seconds()
		} else {
			ts.DurationSec = time.Since(t.start).Seconds()
		}
		t.mu.Unlock()
		out = append(out, ts)
	}
	return out
}
