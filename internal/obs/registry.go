package obs

import (
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (name, label set) time series.
type series struct {
	name   string
	labels []Label // sorted by key
	kind   metricKind

	value float64 // counter / gauge

	// histogram state: counts[i] is the number of samples <= bounds[i]
	// (non-cumulative per bucket; cumulated at export), overflow holds
	// samples above the last bound.
	bounds   []float64
	counts   []uint64
	overflow uint64
	count    uint64
	sum      float64
	min, max float64
}

// Registry collects metrics and implements Recorder. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	series  map[string]*series
	buckets map[string][]float64 // per-metric-name bucket override
	logger  *slog.Logger
	now     func() time.Time // injectable for tests
}

// NewRegistry builds an empty registry. A nil logger discards progress lines.
func NewRegistry(logger *slog.Logger) *Registry {
	if logger == nil {
		logger = discardLogger
	}
	return &Registry{
		series:  map[string]*series{},
		buckets: map[string][]float64{},
		logger:  logger,
		now:     time.Now,
	}
}

// Enabled implements Recorder.
func (r *Registry) Enabled() bool { return true }

// Logger implements Recorder.
func (r *Registry) Logger() *slog.Logger { return r.logger }

// SetBuckets overrides the histogram bucket upper bounds for a metric name.
// It must be called before the first observation of that metric; bounds must
// be sorted ascending.
func (r *Registry) SetBuckets(name string, bounds []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buckets[name] = append([]float64(nil), bounds...)
}

// Count implements Recorder.
func (r *Registry) Count(name string, v float64, labels ...Label) {
	r.mu.Lock()
	s := r.get(name, labels, kindCounter)
	if v > 0 {
		s.value += v
	}
	r.mu.Unlock()
}

// Gauge implements Recorder.
func (r *Registry) Gauge(name string, v float64, labels ...Label) {
	r.mu.Lock()
	r.get(name, labels, kindGauge).value = v
	r.mu.Unlock()
}

// Observe implements Recorder.
func (r *Registry) Observe(name string, v float64, labels ...Label) {
	r.mu.Lock()
	s := r.get(name, labels, kindHistogram)
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	idx := sort.SearchFloat64s(s.bounds, v) // first bound >= v
	if idx == len(s.bounds) {
		s.overflow++
	} else {
		s.counts[idx]++
	}
	r.mu.Unlock()
}

// Time implements Recorder.
func (r *Registry) Time(name string, labels ...Label) func() {
	start := r.now()
	return func() {
		r.Observe(name, r.now().Sub(start).Seconds(), labels...)
	}
}

// get returns the series for (name, labels), creating it on first use.
// Callers hold r.mu. Kind mismatches keep the first registration's kind —
// a programming error surfaced by the exported snapshot, not a panic.
func (r *Registry) get(name string, labels []Label, kind metricKind) *series {
	key := seriesKey(name, labels)
	s, ok := r.series[key]
	if ok {
		return s
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	s = &series{name: name, labels: sorted, kind: kind}
	if kind == kindHistogram {
		bounds, ok := r.buckets[name]
		if !ok {
			bounds = bucketsFor(name)
		}
		s.bounds = bounds
		s.counts = make([]uint64, len(bounds))
	}
	r.series[key] = s
	return s
}

// seriesKey renders name{k="v",...} with labels sorted by key; it doubles as
// the canonical Prometheus series identity.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	sorted := labels
	if len(labels) > 1 && !sort.SliceIsSorted(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key }) {
		sorted = append([]Label(nil), labels...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// Default bucket families, chosen by metric-name suffix.
var (
	// timeBuckets spans 1 ns .. 10 s on a 1-2.5-5 log scale, covering both
	// per-packet network latencies and multi-second sweep points.
	timeBuckets = buildLogBuckets(-9, 1, []float64{1, 2.5, 5})
	// unitBuckets covers ratios/utilizations in [0, 1].
	unitBuckets = []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1}
	// pow2Buckets covers counts (PEs, widths, streams) up to 64 k.
	pow2Buckets = buildPow2Buckets(1 << 16)
)

// bucketsFor picks default histogram bounds from the metric name: seconds
// get the log time scale, ratios the unit scale, everything else powers of
// two. Registries can override per name via SetBuckets.
func bucketsFor(name string) []float64 {
	switch {
	case strings.HasSuffix(name, "_seconds") || strings.Contains(name, "_seconds_"):
		return timeBuckets
	case strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_utilization"):
		return unitBuckets
	default:
		return pow2Buckets
	}
}

// buildLogBuckets produces steps×10^e for e in [loExp, hiExp], capped at
// 10^hiExp (so the top decade contributes only its leading step).
func buildLogBuckets(loExp, hiExp int, steps []float64) []float64 {
	var out []float64
	top := math.Pow(10, float64(hiExp))
	for e := loExp; e <= hiExp; e++ {
		decade := math.Pow(10, float64(e))
		for _, s := range steps {
			if v := decade * s; v <= top {
				out = append(out, v)
			}
		}
	}
	return out
}

func buildPow2Buckets(hi int) []float64 {
	var out []float64
	for v := 1; v <= hi; v *= 2 {
		out = append(out, float64(v))
	}
	return out
}

// Snapshot is the exported, serializable state of a Registry.
type Snapshot struct {
	Counters   []Point         `json:"counters,omitempty"`
	Gauges     []Point         `json:"gauges,omitempty"`
	Histograms []HistogramData `json:"histograms,omitempty"`
}

// Point is one counter or gauge sample.
type Point struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// HistogramData is one histogram series. Buckets hold cumulative counts for
// the finite upper bounds; Count includes samples above the last bound (the
// implicit +Inf bucket, omitted because JSON cannot encode infinity).
type HistogramData struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Min     float64           `json:"min"`
	Max     float64           `json:"max"`
	Buckets []Bucket          `json:"buckets"`
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Mean is the average observed value.
func (h HistogramData) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket containing the rank, the standard fixed-bucket estimate
// (Prometheus histogram_quantile), sharpened by the recorded extremes: the
// first bucket interpolates up from Min rather than zero, ranks that land in
// the implicit +Inf bucket return Max, and every estimate is clamped to
// [Min, Max]. An empty histogram returns 0; q <= 0 returns Min and q >= 1
// returns Max.
func (h HistogramData) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := q * float64(h.Count)
	lo := h.Min
	var prevCum uint64
	for _, b := range h.Buckets {
		if float64(b.Count) >= rank {
			v := b.LE
			if width, inBucket := b.LE-lo, float64(b.Count-prevCum); width > 0 && inBucket > 0 {
				v = lo + width*(rank-float64(prevCum))/inBucket
			}
			return math.Min(math.Max(v, h.Min), h.Max)
		}
		prevCum = b.Count
		if b.LE > lo {
			lo = b.LE
		}
	}
	// The rank falls in the +Inf bucket: no upper bound to interpolate
	// against, so the recorded maximum is the best estimate.
	return h.Max
}

// Snapshot returns a deep, deterministic (sorted) copy of the current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.series))
	for k := range r.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var snap Snapshot
	for _, k := range keys {
		s := r.series[k]
		lm := labelMap(s.labels)
		switch s.kind {
		case kindCounter:
			snap.Counters = append(snap.Counters, Point{Name: s.name, Labels: lm, Value: s.value})
		case kindGauge:
			snap.Gauges = append(snap.Gauges, Point{Name: s.name, Labels: lm, Value: s.value})
		case kindHistogram:
			h := HistogramData{
				Name: s.name, Labels: lm,
				Count: s.count, Sum: s.sum, Min: s.min, Max: s.max,
				Buckets: make([]Bucket, len(s.bounds)),
			}
			var cum uint64
			for i, b := range s.bounds {
				cum += s.counts[i]
				h.Buckets[i] = Bucket{LE: b, Count: cum}
			}
			snap.Histograms = append(snap.Histograms, h)
		}
	}
	return snap
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// Counter returns the current value of a counter series (zero if absent);
// a test and CLI convenience.
func (r *Registry) Counter(name string, labels ...Label) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[seriesKey(name, labels)]; ok {
		return s.value
	}
	return 0
}

// HistogramCount returns the sample count of a histogram series.
func (r *Registry) HistogramCount(name string, labels ...Label) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[seriesKey(name, labels)]; ok {
		return s.count
	}
	return 0
}

var _ Recorder = (*Registry)(nil)
var _ fmt.Stringer = metricKind(0)
