// Package ledger is the persistent run ledger: every spacx-report -ledger
// invocation appends one schema-versioned JSON line to an append-only file
// (for example runs.jsonl), recording when and where the run happened, its
// worker count, per-driver wall times and point counts from the experiment
// engine, peak goroutine/heap pressure, and the final counter/histogram
// summaries (with interpolated p50/p95/p99). Successive records form the
// repository's benchmark trajectory; Compare turns two of them into a
// per-driver regression report.
package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"spacx/internal/buildinfo"
	"spacx/internal/exp/engine"
	"spacx/internal/obs"
)

// SchemaVersion is bumped whenever Record's JSON shape changes
// incompatibly; readers skip-or-warn on versions they do not know.
const SchemaVersion = 1

// DriverStat is one experiment driver's share of a run, taken from the
// engine's progress phases.
type DriverStat struct {
	Name    string  `json:"name"`
	Points  int64   `json:"points"`
	WallSec float64 `json:"wall_sec"`
}

// HistogramSummary condenses one histogram series to its moments and
// interpolated quantiles — the ledger keeps the summary, not the buckets.
type HistogramSummary struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  uint64            `json:"count"`
	Sum    float64           `json:"sum"`
	Min    float64           `json:"min"`
	Max    float64           `json:"max"`
	Mean   float64           `json:"mean"`
	P50    float64           `json:"p50"`
	P95    float64           `json:"p95"`
	P99    float64           `json:"p99"`
}

// Record is one run of a CLI: one JSON line of the ledger.
type Record struct {
	Schema         int                `json:"schema"`
	TimeUTC        time.Time          `json:"time_utc"`
	Hostname       string             `json:"hostname"`
	Version        string             `json:"version,omitempty"` // binary build stamp
	Cmd            string             `json:"cmd"`
	Target         string             `json:"target,omitempty"` // -only / -sweep selection; empty = everything
	Jobs           int                `json:"jobs"`
	WallSec        float64            `json:"wall_sec"`
	Drivers        []DriverStat       `json:"drivers,omitempty"`
	PeakGoroutines int                `json:"peak_goroutines"`
	PeakHeapBytes  uint64             `json:"peak_heap_bytes"`
	Counters       []obs.Point        `json:"counters,omitempty"`
	Histograms     []HistogramSummary `json:"histograms,omitempty"`
}

// New starts a record stamped with the current UTC time and hostname.
func New(cmd, target string, jobs int) Record {
	host, _ := os.Hostname()
	return Record{
		Schema:   SchemaVersion,
		TimeUTC:  time.Now().UTC(),
		Hostname: host,
		Version:  buildinfo.Get().String(),
		Cmd:      cmd,
		Target:   target,
		Jobs:     jobs,
	}
}

// FillProgress copies the engine's per-phase wall times and point counts
// into the record's driver table, and the overall elapsed time.
func (r *Record) FillProgress(st engine.Status) {
	r.WallSec = st.ElapsedSec
	for _, ph := range st.Phases {
		r.Drivers = append(r.Drivers, DriverStat{
			Name:    ph.Name,
			Points:  ph.Done,
			WallSec: ph.WallSec,
		})
	}
}

// finite clamps non-finite values to zero. encoding/json rejects NaN and
// ±Inf outright, so a single poisoned sample (an empty histogram's ±Inf
// min/max, a divide-by-zero mean) would otherwise make the whole record
// unwritable.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// FillSnapshot records the final counter values and histogram summaries.
// Every statistic is sanitized through finite so the record always marshals.
func (r *Record) FillSnapshot(snap obs.Snapshot) {
	if len(snap.Counters) > 0 {
		r.Counters = make([]obs.Point, len(snap.Counters))
		for i, p := range snap.Counters {
			p.Value = finite(p.Value)
			r.Counters[i] = p
		}
	}
	for _, h := range snap.Histograms {
		r.Histograms = append(r.Histograms, HistogramSummary{
			Name: h.Name, Labels: h.Labels,
			Count: h.Count,
			Sum:   finite(h.Sum),
			Min:   finite(h.Min),
			Max:   finite(h.Max),
			Mean:  finite(h.Mean()),
			P50:   finite(h.Quantile(0.50)),
			P95:   finite(h.Quantile(0.95)),
			P99:   finite(h.Quantile(0.99)),
		})
	}
}

// Append writes rec as one JSON line at the end of path, creating the file
// on first use. O_APPEND keeps concurrent writers line-atomic on POSIX
// filesystems for lines under the pipe-buffer size.
func Append(path string, rec Record) error {
	return AppendLine(path, rec)
}

// AppendLine writes any schema-carrying record as one JSON line at the end
// of path — the shared primitive behind the run ledger and the job ledger.
// Appends are serialized against in-process Prune/WriteJobs rewrites of the
// same path, so a concurrent retention pass can never drop a line landing
// mid-rewrite.
func AppendLine(path string, rec any) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("ledger: encode record: %w", err)
	}
	defer lockPath(path)()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: open %s: %w", path, err)
	}
	_, err = f.Write(append(b, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("ledger: append to %s: %w", path, err)
	}
	return nil
}

// Read loads every record of the ledger in file (oldest-first) order. A
// missing file is an empty ledger, not an error; a malformed line is an
// error naming its line number.
func Read(path string) ([]Record, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ledger: open %s: %w", path, err)
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("ledger: %s line %d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ledger: read %s: %w", path, err)
	}
	return out, nil
}

// Last returns the newest record of the ledger, reporting whether one
// exists.
func Last(path string) (Record, bool, error) {
	recs, err := Read(path)
	if err != nil || len(recs) == 0 {
		return Record{}, false, err
	}
	return recs[len(recs)-1], true, nil
}

// Sampler periodically samples runtime pressure — goroutine count and live
// heap bytes — and keeps the peaks for the run record.
type Sampler struct {
	quit chan struct{}
	done chan struct{}

	mu       sync.Mutex
	peakG    int
	peakHeap uint64
}

// StartSampler begins sampling every interval (<= 0 means 250 ms) until
// Stop. One sample is taken immediately so even sub-interval runs record
// real peaks.
func StartSampler(every time.Duration) *Sampler {
	if every <= 0 {
		every = 250 * time.Millisecond
	}
	s := &Sampler{quit: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.sample()
			case <-s.quit:
				return
			}
		}
	}()
	return s
}

func (s *Sampler) sample() {
	g := runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mu.Lock()
	if g > s.peakG {
		s.peakG = g
	}
	if ms.HeapAlloc > s.peakHeap {
		s.peakHeap = ms.HeapAlloc
	}
	s.mu.Unlock()
}

// Stop takes a final sample and returns the observed peaks. It must be
// called exactly once.
func (s *Sampler) Stop() (peakGoroutines int, peakHeapBytes uint64) {
	close(s.quit)
	<-s.done
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peakG, s.peakHeap
}
