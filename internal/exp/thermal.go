package exp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"

	"spacx/internal/dnn"
	"spacx/internal/obs"
	"spacx/internal/sim"
)

// Thermal traffic replay: drives the closed-loop thermal co-simulation
// (sim.ThermalStepper) with a deterministic offered-load profile and records
// the resulting time series — temperatures per node, tuning power, margin,
// and achieved throughput. This is the capacity-under-drift experiment the
// paper's static evaluation cannot express: how much of the calibrated
// throughput survives sustained heating.

// ThermalReportSchema versions the JSON report; bump on breaking layout
// changes.
const ThermalReportSchema = "spacx.thermal-replay/v1"

// Thermal profiles.
const (
	// ProfileStep: idle lead-in, then sustained full load — the worst case
	// that provokes saturation and throttling fastest.
	ProfileStep = "step"
	// ProfileDiurnal: a compressed day — sinusoidal load between a nightly
	// floor and a midday peak, with small seeded jitter.
	ProfileDiurnal = "diurnal"
	// ProfileBursty: a low baseline with randomly arriving full-load bursts
	// of geometric duration (seeded, deterministic).
	ProfileBursty = "bursty"
)

// Profiles lists the supported profile names.
func Profiles() []string { return []string{ProfileStep, ProfileDiurnal, ProfileBursty} }

// ThermalReplayConfig parameterizes one replay.
type ThermalReplayConfig struct {
	Model    dnn.Model
	Mode     sim.Mode
	Profile  string
	Seed     int64
	Steps    int
	StepSec  float64
	Feedback bool

	// Thermal overrides the co-simulation constants; the zero value takes
	// sim.DefaultThermalConfig() (with Feedback from the field above).
	Thermal *sim.ThermalConfig
}

// Validate rejects malformed configs before any simulation runs.
func (c ThermalReplayConfig) Validate() error {
	switch c.Profile {
	case ProfileStep, ProfileDiurnal, ProfileBursty:
	default:
		return fmt.Errorf("exp: unknown thermal profile %q (have %v)", c.Profile, Profiles())
	}
	if c.Steps <= 0 {
		return fmt.Errorf("exp: thermal replay needs positive steps, got %d", c.Steps)
	}
	if math.IsNaN(c.StepSec) || math.IsInf(c.StepSec, 0) || c.StepSec <= 0 {
		return fmt.Errorf("exp: thermal replay needs a positive finite step, got %g s", c.StepSec)
	}
	return nil
}

// OfferedLoad precomputes the deterministic offered-utilization series for a
// profile: a pure function of (profile, seed, steps), so replays are
// reproducible and the series can be regenerated independently of the
// thermal state.
func OfferedLoad(profile string, seed int64, steps int) ([]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, steps)
	switch profile {
	case ProfileStep:
		// 10% idle lead-in (pins the calibration point in the series), then
		// sustained full load.
		lead := steps / 10
		for i := range out {
			if i < lead {
				out[i] = 0.05
			} else {
				out[i] = 1.0
			}
		}
	case ProfileDiurnal:
		// One full day compressed into the series: floor 0.15, peak 0.95,
		// plus +-0.03 of seeded jitter.
		for i := range out {
			phase := 2 * math.Pi * float64(i) / float64(steps)
			day := math.Sin(phase - math.Pi/2) // trough at t=0, peak mid-series
			u := 0.55 + 0.40*day + 0.03*(2*rng.Float64()-1)
			out[i] = math.Min(1, math.Max(0, u))
		}
	case ProfileBursty:
		// Baseline 0.2; bursts to 1.0 arrive with p=0.05 per step and last
		// geometric(1/12) steps.
		burst := 0
		for i := range out {
			if burst == 0 && rng.Float64() < 0.05 {
				burst = 1 + rng.Intn(24)
			}
			if burst > 0 {
				out[i] = 1.0
				burst--
			} else {
				out[i] = 0.2
			}
		}
	default:
		return nil, fmt.Errorf("exp: unknown thermal profile %q (have %v)", profile, Profiles())
	}
	return out, nil
}

// ThermalNode labels one RC node of the report.
type ThermalNode struct {
	Index int
	Kind  string
}

// ThermalPoint is one step of the replay time series.
type ThermalPoint struct {
	TimeSec      float64
	OfferedUtil  float64
	AchievedUtil float64

	MaxChipletK  float64
	MeanChipletK float64
	GBK          float64
	InterposerK  float64

	TuningMwPerRing float64
	ExtraHeatingW   float64
	MarginDB        float64
	Throttle        float64
	Saturated       bool

	PackageW float64
	// PointsPerSec is the achieved inference rate during the step: the
	// model's calibrated full-load rate scaled by achieved utilization.
	PointsPerSec float64

	// NodeTempsK is every RC node's temperature after the step, in the
	// network's node order (see Nodes in the report).
	NodeTempsK []float64
}

// ThermalSummary condenses the replay.
type ThermalSummary struct {
	PeakChipletK        float64
	PeakTuningMwPerRing float64
	MinMarginDB         float64
	MinThrottle         float64
	ThrottledSteps      int
	SaturatedSteps      int
	MeanOfferedUtil     float64
	MeanAchievedUtil    float64
	// OfferedPoints and AchievedPoints integrate the inference rate over
	// the replay; their ratio is the capacity lost to thermal drift.
	OfferedPoints   float64
	AchievedPoints  float64
	CapacityLossPct float64
}

// ThermalReport is the schema-versioned replay result.
type ThermalReport struct {
	Schema   string
	Model    string
	Accel    string
	Mode     string
	Profile  string
	Seed     int64
	Steps    int
	StepSec  float64
	Feedback bool

	// CalibrationK is the ring calibration temperature (the idle thermal
	// equilibrium); FullLoadPointsPerSec the calibrated unthrottled
	// inference rate.
	CalibrationK         float64
	FullLoadPointsPerSec float64

	Nodes   []ThermalNode
	Series  []ThermalPoint
	Summary ThermalSummary
}

// WriteJSON writes rep byte for byte as json.Encoder with a two-space indent
// would (the /v1/thermal body and the spacx-thermal -out file), without
// reflection and without building the body (about 1 MB at 720 steps) in
// memory. Everything but the series is small: it is marshaled whole with a
// null series, and the points, appended one at a time into one reused
// buffer, are spliced in where the null stands. A NaN or an infinity is an
// error, as it is to json.Encoder.
func (rep *ThermalReport) WriteJSON(w io.Writer) error {
	head := *rep
	head.Series = nil
	b, err := json.MarshalIndent(&head, "", "  ")
	if err != nil {
		return err
	}
	const null = `"Series": null`
	at := bytes.Index(b, []byte(null))
	if at < 0 {
		return fmt.Errorf("exp: no %s in the thermal report head", null)
	}
	at += len(null) - len("null")

	// bufio.Writer keeps the first write error; Flush returns it.
	bw := bufio.NewWriter(w)
	bw.Write(b[:at])
	if rep.Series == nil {
		bw.WriteString("null")
	} else {
		bw.WriteByte('[')
		var pt []byte
		for i := range rep.Series {
			if pt, err = appendThermalPoint(pt[:0], &rep.Series[i]); err != nil {
				return err
			}
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.Write(pt)
		}
		if len(rep.Series) > 0 {
			bw.WriteString("\n  ")
		}
		bw.WriteByte(']')
	}
	bw.Write(b[at+len("null"):])
	bw.WriteByte('\n')
	return bw.Flush()
}

// appendThermalPoint appends pt as an indented json.Encoder writes it two
// levels deep, as a series element: a newline and four spaces, then the
// fields in struct order at six spaces and NodeTempsK's elements at eight.
func appendThermalPoint(b []byte, pt *ThermalPoint) ([]byte, error) {
	var err error
	num := func(key string, f float64) {
		b = append(b, key...)
		if err == nil {
			b, err = appendJSONFloat(b, f)
		}
	}
	num("\n    {\n      \"TimeSec\": ", pt.TimeSec)
	num(",\n      \"OfferedUtil\": ", pt.OfferedUtil)
	num(",\n      \"AchievedUtil\": ", pt.AchievedUtil)
	num(",\n      \"MaxChipletK\": ", pt.MaxChipletK)
	num(",\n      \"MeanChipletK\": ", pt.MeanChipletK)
	num(",\n      \"GBK\": ", pt.GBK)
	num(",\n      \"InterposerK\": ", pt.InterposerK)
	num(",\n      \"TuningMwPerRing\": ", pt.TuningMwPerRing)
	num(",\n      \"ExtraHeatingW\": ", pt.ExtraHeatingW)
	num(",\n      \"MarginDB\": ", pt.MarginDB)
	num(",\n      \"Throttle\": ", pt.Throttle)
	b = append(b, ",\n      \"Saturated\": "...)
	b = strconv.AppendBool(b, pt.Saturated)
	num(",\n      \"PackageW\": ", pt.PackageW)
	num(",\n      \"PointsPerSec\": ", pt.PointsPerSec)
	b = append(b, ",\n      \"NodeTempsK\": "...)
	switch {
	case pt.NodeTempsK == nil:
		b = append(b, "null"...)
	case len(pt.NodeTempsK) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, t := range pt.NodeTempsK {
			if i > 0 {
				b = append(b, ',')
			}
			num("\n        ", t)
		}
		b = append(b, "\n      ]"...)
	}
	b = append(b, "\n    }"...)
	return b, err
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form when f is nonzero and
// |f| < 1e-6 or |f| >= 1e21, with a one-digit negative exponent unpadded
// (1e-7, not 1e-07). NaN and the infinities are json.Marshal's
// UnsupportedValueError.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// ThermalReplay runs one deterministic traffic replay through the coupled
// thermal simulator and returns the time-series report. The accelerator is
// the default SPACX machine; the model's static simulation fixes the
// full-load operating point.
func ThermalReplay(cfg ThermalReplayConfig) (*ThermalReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	offered, err := OfferedLoad(cfg.Profile, cfg.Seed, cfg.Steps)
	if err != nil {
		return nil, err
	}

	acc := sim.SPACXAccel()
	var rep *ThermalReport
	err = point("thermal", func() error {
		res, err := runModelCached(acc, cfg.Model, cfg.Mode)
		if err != nil {
			return fmt.Errorf("exp: thermal base run: %w", err)
		}
		tc := sim.DefaultThermalConfig()
		if cfg.Thermal != nil {
			tc = *cfg.Thermal
		}
		tc.Feedback = cfg.Feedback
		st, err := sim.NewThermalStepper(acc, res, tc)
		if err != nil {
			return err
		}
		rep, err = replay(st, acc, res, cfg, offered)
		return err
	}, "model", cfg.Model.Name, "profile", cfg.Profile, "steps", cfg.Steps)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// replay drives the stepper through the offered series and assembles the
// report. Each step is observed into the achieved-utilization histogram;
// the gauges and step counters are published once, by publishThermal.
func replay(st *sim.ThermalStepper, acc sim.Accelerator, res sim.ModelResult, cfg ThermalReplayConfig, offered []float64) (*ThermalReport, error) {
	rep := &ThermalReport{
		Schema:   ThermalReportSchema,
		Model:    cfg.Model.Name,
		Accel:    acc.Name(),
		Mode:     cfg.Mode.String(),
		Profile:  cfg.Profile,
		Seed:     cfg.Seed,
		Steps:    cfg.Steps,
		StepSec:  cfg.StepSec,
		Feedback: cfg.Feedback,

		CalibrationK:         st.Coupler().CalibrationK(),
		FullLoadPointsPerSec: 1 / res.ExecSec,
	}
	net := st.Network()
	for i := 0; i < net.Nodes(); i++ {
		rep.Nodes = append(rep.Nodes, ThermalNode{Index: i, Kind: net.Kind(i).String()})
	}

	sum := &rep.Summary
	sum.MinMarginDB = math.Inf(1)
	sum.MinThrottle = math.Inf(1)
	enabled := recorder.Enabled()
	lbl := obs.Label{Key: "profile", Value: cfg.Profile}
	if enabled {
		defer publishThermal(rep, lbl)
	}
	for i, u := range offered {
		s, err := st.Step(u, cfg.StepSec)
		if err != nil {
			return nil, fmt.Errorf("exp: thermal step %d: %w", i, err)
		}
		pt := ThermalPoint{
			TimeSec:      s.TimeSec,
			OfferedUtil:  s.OfferedUtil,
			AchievedUtil: s.AchievedUtil,
			MaxChipletK:  s.MaxChipletK,
			MeanChipletK: s.MeanChipletK,
			GBK:          s.GBK,
			InterposerK:  s.InterposerK,

			TuningMwPerRing: s.TuningMwPerRing,
			ExtraHeatingW:   s.ExtraHeatingW,
			MarginDB:        s.MarginDB,
			Throttle:        s.Throttle,
			Saturated:       s.Saturated,

			PackageW:     s.PackageW,
			PointsPerSec: s.AchievedUtil * rep.FullLoadPointsPerSec,
			NodeTempsK:   net.Temps(),
		}
		rep.Series = append(rep.Series, pt)

		// Summary accumulation.
		sum.PeakChipletK = math.Max(sum.PeakChipletK, pt.MaxChipletK)
		sum.PeakTuningMwPerRing = math.Max(sum.PeakTuningMwPerRing, pt.TuningMwPerRing)
		sum.MinMarginDB = math.Min(sum.MinMarginDB, pt.MarginDB)
		sum.MinThrottle = math.Min(sum.MinThrottle, pt.Throttle)
		if pt.Throttle < 1 {
			sum.ThrottledSteps++
		}
		if pt.Saturated {
			sum.SaturatedSteps++
		}
		sum.MeanOfferedUtil += pt.OfferedUtil
		sum.MeanAchievedUtil += pt.AchievedUtil
		sum.OfferedPoints += pt.OfferedUtil * rep.FullLoadPointsPerSec * cfg.StepSec
		sum.AchievedPoints += pt.PointsPerSec * cfg.StepSec

		if enabled {
			recorder.Observe("spacx_thermal_step_achieved_utilization_ratio", pt.AchievedUtil, lbl)
		}
	}
	n := float64(len(offered))
	sum.MeanOfferedUtil /= n
	sum.MeanAchievedUtil /= n
	if sum.OfferedPoints > 0 {
		sum.CapacityLossPct = 100 * (1 - sum.AchievedPoints/sum.OfferedPoints)
	}
	return rep, nil
}

// publishThermal publishes a replay to the package recorder: the gauges
// take its last step and the counters add its step totals, so a finished
// replay leaves the registry as per-step updates would, for one series
// update each instead of one per step. The saturated and throttled counters
// are created only once a step was degraded. A replay that failed part-way
// publishes the steps it completed, one that failed at its first step
// nothing.
func publishThermal(rep *ThermalReport, lbl obs.Label) {
	n := len(rep.Series)
	if n == 0 {
		return
	}
	last := &rep.Series[n-1]
	recorder.Gauge("spacx_thermal_max_chiplet_kelvin", last.MaxChipletK, lbl)
	recorder.Gauge("spacx_thermal_interposer_kelvin", last.InterposerK, lbl)
	recorder.Gauge("spacx_thermal_tuning_mw_per_ring", last.TuningMwPerRing, lbl)
	recorder.Gauge("spacx_thermal_margin_db", last.MarginDB, lbl)
	recorder.Gauge("spacx_thermal_throttle", last.Throttle, lbl)
	recorder.Count("spacx_thermal_steps_total", float64(n), lbl)
	if s := rep.Summary.SaturatedSteps; s > 0 {
		recorder.Count("spacx_thermal_saturated_steps_total", float64(s), lbl)
	}
	if s := rep.Summary.ThrottledSteps; s > 0 {
		recorder.Count("spacx_thermal_throttled_steps_total", float64(s), lbl)
	}
}

// CapacityRow is one point of the capacity-under-drift table: the
// self-consistent thermal equilibrium at a constant offered load.
type CapacityRow struct {
	OfferedUtil     float64
	AchievedUtil    float64
	MaxChipletK     float64
	TuningMwPerRing float64
	MarginDB        float64
	Throttle        float64
	Saturated       bool
	PointsPerSec    float64
}

// ThermalCapacity sweeps constant offered loads to their thermal
// equilibria — the steady-state capacity table of EXPERIMENTS.md. Strict
// errors from the fixed point (saturation, negative margin) are folded into
// the rows rather than propagated: the table's whole purpose is to show the
// degraded operating points.
func ThermalCapacity(m dnn.Model, mode sim.Mode, utils []float64) ([]CapacityRow, error) {
	if len(utils) == 0 {
		utils = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0}
	}
	sorted := append([]float64(nil), utils...)
	sort.Float64s(sorted)

	acc := sim.SPACXAccel()
	res, err := runModelCached(acc, m, mode)
	if err != nil {
		return nil, fmt.Errorf("exp: thermal capacity base run: %w", err)
	}
	st, err := sim.NewThermalStepper(acc, res, sim.DefaultThermalConfig())
	if err != nil {
		return nil, err
	}
	rows := make([]CapacityRow, 0, len(sorted))
	for _, u := range sorted {
		s, err := st.RunSteady(u)
		if err != nil && s == (sim.ThermalSample{}) {
			return nil, fmt.Errorf("exp: thermal capacity at u=%g: %w", u, err)
		}
		rows = append(rows, CapacityRow{
			OfferedUtil:     u,
			AchievedUtil:    s.AchievedUtil,
			MaxChipletK:     s.MaxChipletK,
			TuningMwPerRing: s.TuningMwPerRing,
			MarginDB:        s.MarginDB,
			Throttle:        s.Throttle,
			Saturated:       s.Saturated,
			PointsPerSec:    s.AchievedUtil / res.ExecSec,
		})
	}
	return rows, nil
}

// ThermalGolden is the golden-file driver: a short seeded bursty replay
// with feedback on. Deterministic — fixed seed, fixed-step integration, no
// wall-clock anywhere.
func ThermalGolden() (*ThermalReport, error) {
	return ThermalReplay(ThermalReplayConfig{
		Model:    dnn.AlexNet(),
		Mode:     sim.LayerByLayer,
		Profile:  ProfileBursty,
		Seed:     1,
		Steps:    120,
		StepSec:  1,
		Feedback: true,
	})
}
