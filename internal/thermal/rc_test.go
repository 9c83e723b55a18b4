package thermal

import (
	"math"
	"testing"

	"spacx/internal/floorplan"
)

func testPlan(t *testing.T, chiplets int) *floorplan.Plan {
	t.Helper()
	spec := floorplan.DefaultSpec()
	spec.M = chiplets
	spec.GEF = chiplets / 4
	plan, err := floorplan.Build(spec)
	if err != nil {
		t.Fatalf("floorplan.Build: %v", err)
	}
	return plan
}

func testNetwork(t *testing.T, chiplets int) *Network {
	t.Helper()
	n, err := NewNetwork(testPlan(t, chiplets), DefaultConfig())
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n
}

func TestNetworkTopology(t *testing.T) {
	n := testNetwork(t, 16)
	if got := n.Nodes(); got != 16+3 {
		t.Fatalf("Nodes() = %d, want 19", got)
	}
	if n.Chiplets() != 16 || n.GBNode() != 16 || n.InterposerNode() != 17 || n.AmbientNode() != 18 {
		t.Fatalf("node layout: chiplets=%d gb=%d interposer=%d ambient=%d",
			n.Chiplets(), n.GBNode(), n.InterposerNode(), n.AmbientNode())
	}
	if n.Kind(0) != Chiplet || n.Kind(16) != GB || n.Kind(17) != Interposer || n.Kind(18) != Ambient {
		t.Fatalf("node kinds wrong: %v %v %v %v", n.Kind(0), n.Kind(16), n.Kind(17), n.Kind(18))
	}
	for i, temp := range n.Temps() {
		if temp != DefaultConfig().AmbientK {
			t.Fatalf("node %d starts at %g, want ambient", i, temp)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.AmbientK = 0 },
		func(c *Config) { c.ChipletToInterposerKPerW = 0 },
		func(c *Config) { c.GBToInterposerKPerW = -1 },
		func(c *Config) { c.InterposerToAmbientKPerW = 0 },
		func(c *Config) { c.LateralKPerW = -1 },
		func(c *Config) { c.ChipletCapJPerK = 0 },
		func(c *Config) { c.GBCapJPerK = -1 },
		func(c *Config) { c.InterposerCapJPerK = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate() accepted bad config %+v", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// Closed-form check: with lateral coupling disabled the network is a star, so
// superposition gives each steady-state temperature exactly. The interposer
// sits at ambient + P_total*R_sink; each die at the interposer plus its own
// power times its vertical resistance.
func TestSteadyStateMatchesClosedForm(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LateralKPerW = 0 // star network: exact closed form
	n, err := NewNetwork(testPlan(t, 16), cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}

	src := make([]float64, n.Nodes())
	perChiplet, gbW, laserW := 0.4, 1.5, 0.8
	total := 0.0
	for i := 0; i < n.Chiplets(); i++ {
		src[i] = perChiplet
		total += perChiplet
	}
	src[n.GBNode()] = gbW
	src[n.InterposerNode()] = laserW
	total += gbW + laserW

	temps, err := n.SteadyState(src)
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	wantInterposer := cfg.AmbientK + total*cfg.InterposerToAmbientKPerW
	if got := temps[n.InterposerNode()]; math.Abs(got-wantInterposer) > 1e-9 {
		t.Errorf("interposer = %.12g K, closed form %.12g K", got, wantInterposer)
	}
	wantChiplet := wantInterposer + perChiplet*cfg.ChipletToInterposerKPerW
	for i := 0; i < n.Chiplets(); i++ {
		if math.Abs(temps[i]-wantChiplet) > 1e-9 {
			t.Errorf("chiplet %d = %.12g K, closed form %.12g K", i, temps[i], wantChiplet)
		}
	}
	wantGB := wantInterposer + gbW*cfg.GBToInterposerKPerW
	if got := temps[n.GBNode()]; math.Abs(got-wantGB) > 1e-9 {
		t.Errorf("gb = %.12g K, closed form %.12g K", got, wantGB)
	}
	if got := temps[n.AmbientNode()]; got != cfg.AmbientK {
		t.Errorf("ambient = %g K, want pinned %g K", got, cfg.AmbientK)
	}
}

// Property: one very long Advance lands on the steady-state solve, from a
// warm start off equilibrium and with lateral links on, so the transient
// decays through every mode of the full topology.
func TestAdvanceConvergesToSteadyState(t *testing.T) {
	n := testNetwork(t, 16)
	src := make([]float64, n.Nodes())
	for i := 0; i < n.Chiplets(); i++ {
		src[i] = 0.3 + 0.05*float64(i%4) // asymmetric load exercises lateral spreading
	}
	src[n.GBNode()] = 2.0
	src[n.InterposerNode()] = 1.0

	want, err := n.SteadyState(src)
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	warm := n.Temps()
	for i := range warm {
		warm[i] += 40 - 3*float64(i%5)
	}
	if err := n.SetTemps(warm); err != nil {
		t.Fatalf("SetTemps: %v", err)
	}
	if err := n.Advance(src, 1e6); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	for i, got := range n.Temps() {
		if math.Abs(got-want[i]) > 1e-9 {
			t.Errorf("node %d: transient %.12g K vs steady %.12g K", i, got, want[i])
		}
	}
}

// Property: energy conservation. Injected heat must equal stored heat plus
// heat delivered to ambient, to float rounding, over a long heterogeneous run.
func TestEnergyConservation(t *testing.T) {
	n := testNetwork(t, 36)
	src := make([]float64, n.Nodes())
	for i := 0; i < n.Chiplets(); i++ {
		src[i] = 0.25
	}
	src[n.GBNode()] = 3.0

	for step := 0; step < 200; step++ {
		// Vary the load so the accounting is exercised off-equilibrium.
		u := 0.2 + 0.8*float64(step%10)/9
		scaled := make([]float64, len(src))
		for i := range src {
			scaled[i] = src[i] * u
		}
		if err := n.Advance(scaled, 1.5); err != nil {
			t.Fatalf("Advance step %d: %v", step, err)
		}
	}
	if n.InputJ() <= 0 {
		t.Fatalf("no heat recorded: inputJ=%g", n.InputJ())
	}
	if rel := math.Abs(n.EnergyError()) / n.InputJ(); rel > 1e-9 {
		t.Errorf("energy conservation residual %.3g (relative), want < 1e-9; inputJ=%g ambientJ=%g",
			rel, n.InputJ(), n.AmbientJ())
	}
}

// stepLoad is a heterogeneous load step: uneven chiplets, a hot GB die and
// the on-die laser share on the interposer.
func stepLoad(n *Network) []float64 {
	s := make([]float64, n.Nodes())
	for i := 0; i < n.Chiplets(); i++ {
		s[i] = 0.4 + 0.05*float64(i%3)
	}
	s[n.GBNode()] = 2.5
	s[n.InterposerNode()] = 0.7
	return s
}

// maxDiffK is the largest node temperature difference between two networks.
func maxDiffK(a, b *Network) float64 {
	var d float64
	for i := 0; i < a.Nodes(); i++ {
		d = math.Max(d, math.Abs(a.Temp(i)-b.Temp(i)))
	}
	return d
}

// Property: convergence onto the exact update. Forward Euler with 1×, 10×
// and 100× the fewest substeps that stay within MaxStableStep/2 must
// approach Advance monotonically, and Advance must sit closer to 10× Euler
// than 1× Euler does. 32 chiplets, Δ = 1 s, 100 steps from ambient under a
// load step.
func TestEulerConvergesToAdvance(t *testing.T) {
	const (
		chiplets = 32
		dt       = 1.0
		steps    = 100
	)
	euler := func(k int) *Network {
		n := testNetwork(t, chiplets)
		src := stepLoad(n)
		sub := k * int(math.Ceil(dt/(n.MaxStableStep()/2)))
		for s := 0; s < steps*sub; s++ {
			if err := n.Euler(src, dt/float64(sub)); err != nil {
				t.Fatalf("Euler: %v", err)
			}
		}
		return n
	}
	exact := testNetwork(t, chiplets)
	src := stepLoad(exact)
	for s := 0; s < steps; s++ {
		if err := exact.Advance(src, dt); err != nil {
			t.Fatalf("Advance: %v", err)
		}
	}
	e1, e10, e100 := euler(1), euler(10), euler(100)
	d1, d10, d100 := maxDiffK(e1, exact), maxDiffK(e10, exact), maxDiffK(e100, exact)
	if !(d1 > d10 && d10 > d100) {
		t.Errorf("Euler error against Advance not shrinking: 1x %.3g K, 10x %.3g K, 100x %.3g K", d1, d10, d100)
	}
	if got, ref := maxDiffK(exact, e10), maxDiffK(e1, e10); !(got < ref) {
		t.Errorf("Advance is %.3g K from 10x Euler, 1x Euler only %.3g K", got, ref)
	}
	t.Logf("against 100x Euler: 1x Euler %.3g K, Advance %.3g K", maxDiffK(e1, e100), maxDiffK(exact, e100))
}

// Property: semigroup. One Advance(Δ) lands where two Advance(Δ/2) do, in
// temperature and in the heat delivered to ambient, under a varying load,
// for Δ near the chiplet time constant (~0.15 s), below the interposer's
// (~30 s) and far above both.
func TestAdvanceSemigroup(t *testing.T) {
	for _, dt := range []float64{0.1, 10, 1000} {
		one, two := testNetwork(t, 32), testNetwork(t, 32)
		for step := 0; step < 20; step++ {
			src := stepLoad(one)
			u := 0.2 + 0.8*float64(step%7)/6
			for i := range src {
				src[i] *= u
			}
			if err := one.Advance(src, dt); err != nil {
				t.Fatalf("Advance(%g): %v", dt, err)
			}
			for h := 0; h < 2; h++ {
				if err := two.Advance(src, dt/2); err != nil {
					t.Fatalf("Advance(%g): %v", dt/2, err)
				}
			}
			if d := maxDiffK(one, two); d > 1e-9 {
				t.Fatalf("dt %g step %d: one step and two half steps differ by %.3g K", dt, step, d)
			}
		}
		if rel := math.Abs(one.AmbientJ()-two.AmbientJ()) / one.AmbientJ(); rel > 1e-9 {
			t.Errorf("dt %g: ambient heat %.12g J in one step, %.12g J in halves", dt, one.AmbientJ(), two.AmbientJ())
		}
	}
}

// Determinism: two identical runs produce bit-identical trajectories.
func TestAdvanceDeterministic(t *testing.T) {
	run := func() []float64 {
		n := testNetwork(t, 16)
		s := make([]float64, n.Nodes())
		for i := 0; i < n.Chiplets(); i++ {
			s[i] = 0.37
		}
		s[n.GBNode()] = 1.9
		for step := 0; step < 50; step++ {
			if err := n.Advance(s, 1.0); err != nil {
				t.Fatalf("Advance: %v", err)
			}
		}
		return n.Temps()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d: %v != %v — integration is not deterministic", i, a[i], b[i])
		}
	}
}

func TestAdvanceRejectsBadInput(t *testing.T) {
	n := testNetwork(t, 16)
	onAmbient := make([]float64, n.Nodes())
	onAmbient[n.AmbientNode()] = 1
	rows := []struct {
		name string
		src  []float64
		dt   float64
	}{
		{"zero dt", nil, 0},
		{"negative dt", nil, -1},
		{"NaN dt", nil, math.NaN()},
		{"+Inf dt", nil, math.Inf(1)},
		{"-Inf dt", nil, math.Inf(-1)},
		{"oversized sources", make([]float64, n.Nodes()+1), 0.01},
		{"source on ambient", onAmbient, 0.01},
	}
	before := n.Temps()
	for _, r := range rows {
		if err := n.Advance(r.src, r.dt); err == nil {
			t.Errorf("%s: Advance accepted it", r.name)
		}
		if r.src != nil {
			if _, err := n.SteadyState(r.src); err == nil {
				t.Errorf("%s: SteadyState accepted it", r.name)
			}
		}
	}
	for i, got := range n.Temps() {
		if got != before[i] {
			t.Fatalf("rejected steps moved node %d: %g K, was %g K", i, got, before[i])
		}
	}
	if n.InputJ() != 0 || n.AmbientJ() != 0 {
		t.Fatalf("rejected steps were accounted: inputJ %g, ambientJ %g", n.InputJ(), n.AmbientJ())
	}
}

func TestMaxStableStepPositive(t *testing.T) {
	n := testNetwork(t, 16)
	h := n.MaxStableStep()
	if h <= 0 || math.IsInf(h, 1) {
		t.Fatalf("MaxStableStep = %g", h)
	}
	// The smallest node is a chiplet: C=0.15 J/K behind at least the vertical
	// conductance 0.5 W/K, so the bound must be well under a second.
	if h > 0.5 {
		t.Errorf("MaxStableStep = %g s, implausibly large", h)
	}
}

func TestSetTempsAndReset(t *testing.T) {
	n := testNetwork(t, 16)
	warm := make([]float64, n.Nodes())
	for i := range warm {
		warm[i] = 350
	}
	if err := n.SetTemps(warm); err != nil {
		t.Fatalf("SetTemps: %v", err)
	}
	if n.Temp(0) != 350 {
		t.Errorf("chiplet temp = %g after SetTemps", n.Temp(0))
	}
	if got := n.Temp(n.AmbientNode()); got != DefaultConfig().AmbientK {
		t.Errorf("ambient = %g after SetTemps, must stay pinned", got)
	}
	if err := n.SetTemps(warm[:3]); err == nil {
		t.Error("SetTemps accepted short slice")
	}
	n.Reset()
	if n.Temp(0) != DefaultConfig().AmbientK || n.InputJ() != 0 || n.AmbientJ() != 0 {
		t.Errorf("Reset incomplete: T=%g inputJ=%g ambientJ=%g", n.Temp(0), n.InputJ(), n.AmbientJ())
	}
}

func TestMaxAndMeanChipletK(t *testing.T) {
	n := testNetwork(t, 16)
	warm := n.Temps()
	warm[3] = 400
	if err := n.SetTemps(warm); err != nil {
		t.Fatalf("SetTemps: %v", err)
	}
	if got := n.MaxChipletK(); got != 400 {
		t.Errorf("MaxChipletK = %g, want 400", got)
	}
	wantMean := (DefaultConfig().AmbientK*15 + 400) / 16
	if got := n.MeanChipletK(); math.Abs(got-wantMean) > 1e-9 {
		t.Errorf("MeanChipletK = %g, want %g", got, wantMean)
	}
}
