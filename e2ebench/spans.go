package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced op, in Unix nanoseconds. Spans of
// one op share Op; Parent is 0 for the op's root span.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps every span of a traced run in memory until the run writes
// it out. A nil *spanLog traces nothing.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	next  int64
}

// opTrace records the spans of one op under its root span. A nil *opTrace
// is the untraced op: every method is a no-op.
type opTrace struct {
	log    *spanLog
	op     int64
	root   int64
	name   string
	start  int64
	grafts []graft
}

// graft is a service trace to attach under a span once the op is timed.
type graft struct {
	traceID string
	parent  int64
}

// graftLater queues the service trace id for attachment under parent.
func (t *opTrace) graftLater(traceID string, parent int64) {
	if t != nil {
		t.grafts = append(t.grafts, graft{traceID, parent})
	}
}

// begin opens the root span of a new op.
func (l *spanLog) begin(name string) *opTrace {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	return &opTrace{log: l, op: id, root: id, name: name, start: time.Now().UnixNano()}
}

// finish closes the op's root span.
func (t *opTrace) finish() {
	if t == nil {
		return
	}
	s := span{Op: t.op, ID: t.root, Name: t.name, Start: t.start, End: time.Now().UnixNano()}
	t.log.mu.Lock()
	t.log.spans = append(t.log.spans, s)
	t.log.mu.Unlock()
}

// now is the start timestamp for a later span call (0 when untraced).
func (t *opTrace) now() int64 {
	if t == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// span records a child of the op's root from start until now.
func (t *opTrace) span(name string, start int64) int64 {
	if t == nil {
		return 0
	}
	return t.add(t.root, name, start, time.Now().UnixNano())
}

// add records a span with an explicit parent and interval and returns its id.
func (t *opTrace) add(parent int64, name string, start, end int64) int64 {
	if t == nil {
		return 0
	}
	t.log.mu.Lock()
	t.log.next++
	id := t.log.next
	t.log.spans = append(t.log.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: start, End: end})
	t.log.mu.Unlock()
	return id
}

// byOp groups the logged spans by op id.
func (l *spanLog) byOp() map[int64][]span {
	out := map[int64][]span{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		out[s.Op] = append(out[s.Op], s)
	}
	return out
}

// write stores the spans as JSON lines at path, creating its directory.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// selfTimes returns every span's self time in nanoseconds: its duration
// minus the part of its interval that its descendants cover. Descendants
// rather than children only, because a service span can outlive its
// parent (the serve queue-wait span ends before the engine span it parents
// starts), and that time still is not the ancestor's own.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		var iv [][2]int64
		stack := append([]int(nil), kids[s.ID]...)
		for len(stack) > 0 {
			d := spans[stack[len(stack)-1]]
			stack = append(stack[:len(stack)-1], kids[d.ID]...)
			lo, hi := max(d.Start, s.Start), min(d.End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[s.ID] = s.dur() - covered(iv)
	}
	return out
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi int64
	for i, v := range iv {
		if i == 0 || v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
			continue
		}
		hi = max(hi, v[1])
	}
	return total + hi - lo
}
