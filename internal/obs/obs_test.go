package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry(nil)
	r.Count("reqs_total", 1)
	r.Count("reqs_total", 2.5)
	r.Count("reqs_total", -3) // negative adds are dropped: counters are monotonic
	r.Count("bytes_total", 10, Label{Key: "dir", Value: "in"})
	r.Count("bytes_total", 5, Label{Key: "dir", Value: "out"})
	r.Count("bytes_total", 1, Label{Key: "dir", Value: "in"})
	r.Gauge("temp", 3)
	r.Gauge("temp", 7) // gauges overwrite

	if got := r.Counter("reqs_total"); got != 3.5 {
		t.Errorf("reqs_total = %v, want 3.5", got)
	}
	if got := r.Counter("bytes_total", Label{Key: "dir", Value: "in"}); got != 11 {
		t.Errorf("bytes_total{dir=in} = %v, want 11", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 3 {
		t.Fatalf("counters = %d, want 3", len(snap.Counters))
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 7 {
		t.Errorf("gauge snapshot wrong: %+v", snap.Gauges)
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry(nil)
	r.Count("x_total", 1, Label{Key: "b", Value: "2"}, Label{Key: "a", Value: "1"})
	r.Count("x_total", 1, Label{Key: "a", Value: "1"}, Label{Key: "b", Value: "2"})
	if got := r.Counter("x_total", Label{Key: "b", Value: "2"}, Label{Key: "a", Value: "1"}); got != 2 {
		t.Errorf("label order should not split series: got %v, want 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry(nil)
	r.SetBuckets("lat_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		r.Observe("lat_seconds", v)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(snap.Histograms))
	}
	h := snap.Histograms[0]
	if h.Count != 5 || math.Abs(h.Sum-56.05) > 1e-12 || h.Min != 0.05 || h.Max != 50 {
		t.Errorf("histogram stats wrong: %+v", h)
	}
	wantCum := []uint64{1, 3, 4} // cumulative: <=0.1, <=1, <=10
	for i, b := range h.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket le=%v count = %d, want %d", b.LE, b.Count, wantCum[i])
		}
	}
	if math.Abs(h.Mean()-11.21) > 1e-12 {
		t.Errorf("mean = %v", h.Mean())
	}
}

func TestDefaultBucketFamilies(t *testing.T) {
	if got := bucketsFor("x_seconds"); got[0] != 1e-9 || got[len(got)-1] != 10 {
		t.Errorf("time buckets wrong: %v .. %v", got[0], got[len(got)-1])
	}
	if got := bucketsFor("pe_utilization_ratio"); got[len(got)-1] != 1 {
		t.Errorf("unit buckets should end at 1: %v", got)
	}
	if got := bucketsFor("active_pes"); got[0] != 1 || got[len(got)-1] != 65536 {
		t.Errorf("pow2 buckets wrong: %v", got)
	}
	for name, b := range map[string][]float64{
		"a_seconds": bucketsFor("a_seconds"),
		"a_ratio":   bucketsFor("a_ratio"),
		"a_count":   bucketsFor("a_count"),
	} {
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Errorf("%s buckets not ascending at %d: %v", name, i, b)
			}
		}
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry(nil)
	fake := time.Unix(0, 0)
	r.now = func() time.Time { return fake }
	stop := r.Time("op_seconds", Label{Key: "op", Value: "map"})
	fake = fake.Add(250 * time.Millisecond)
	stop()
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 || snap.Histograms[0].Sum != 0.25 {
		t.Fatalf("timer snapshot wrong: %+v", snap.Histograms)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry(nil)
	r.Count("spacx_flow_bytes_total", 42, Label{Key: "class", Value: "weights"}, Label{Key: "dir", Value: "gb_to_pe"})
	r.Gauge("spacx_util_ratio", 0.5, Label{Key: "station", Value: `a"b\c`})
	r.SetBuckets("spacx_lat_seconds", []float64{0.5, 1})
	r.Observe("spacx_lat_seconds", 0.25)
	r.Observe("spacx_lat_seconds", 2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE spacx_flow_bytes_total counter",
		`spacx_flow_bytes_total{class="weights",dir="gb_to_pe"} 42`,
		"# TYPE spacx_lat_seconds histogram",
		`spacx_lat_seconds_bucket{le="0.5"} 1`,
		`spacx_lat_seconds_bucket{le="1"} 1`,
		`spacx_lat_seconds_bucket{le="+Inf"} 2`,
		"spacx_lat_seconds_sum 2.25",
		"spacx_lat_seconds_count 2",
		`station="a\"b\\c"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	// Every non-comment line must parse as `series value`.
	lineRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRE.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewRegistry(nil)
	r.Count("c_total", 3, Label{Key: "k", Value: "v"})
	r.Observe("h_seconds", 0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 3 || snap.Counters[0].Labels["k"] != "v" {
		t.Errorf("counters wrong: %+v", snap.Counters)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != 1 {
		t.Errorf("histograms wrong: %+v", snap.Histograms)
	}
}

func TestWriteFileFormatByExtension(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(nil)
	r.Count("c_total", 1)

	jsonPath := filepath.Join(dir, "m.json")
	if err := r.WriteFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(jsonPath)
	if !json.Valid(b) {
		t.Errorf("%s is not JSON: %s", jsonPath, b)
	}

	promPath := filepath.Join(dir, "m.prom")
	if err := r.WriteFile(promPath); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(promPath)
	if !strings.Contains(string(b), "# TYPE c_total counter") {
		t.Errorf("%s is not prometheus text: %s", promPath, b)
	}

	if err := r.WriteFile(filepath.Join(dir, "nosuch", "m.prom")); err == nil {
		t.Error("unwritable path should fail")
	}
}

func TestNopRecorder(t *testing.T) {
	n := Nop()
	if n.Enabled() {
		t.Error("nop recorder must report disabled")
	}
	if n.Logger() == nil {
		t.Error("nop logger must not be nil")
	}
	n.Count("x", 1)
	n.Gauge("x", 1)
	n.Observe("x", 1)
	n.Time("x")() // must return a callable stop
	// The guarded hot-path pattern must not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		if n.Enabled() {
			n.Count("x_total", 1, Label{Key: "class", Value: "weights"})
		}
	})
	if allocs != 0 {
		t.Errorf("guarded nop path allocates %v per op, want 0", allocs)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Count("c_total", 1)
				r.Observe("h_seconds", float64(i)*1e-6)
				r.Gauge("g", float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total"); got != 4000 {
		t.Errorf("c_total = %v, want 4000", got)
	}
	if got := r.HistogramCount("h_seconds"); got != 4000 {
		t.Errorf("h_seconds count = %d, want 4000", got)
	}
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"ok_name":    "ok_name",
		"bad-name":   "bad_name",
		"0lead":      "_lead",
		"gb->pe":     "gb__pe",
		"":           "_",
		"with space": "with_space",
	} {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile is non-trivial.
	x := 0.0
	for i := 0; i < 1e5; i++ {
		x += math.Sqrt(float64(i))
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
	if _, err := StartProfiles(filepath.Join(dir, "nosuch", "cpu.prof"), ""); err == nil {
		t.Error("unwritable cpu profile path should fail")
	}
}
