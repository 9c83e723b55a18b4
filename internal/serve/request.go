package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"spacx/internal/dnn"
	"spacx/internal/network"
	"spacx/internal/sim"
)

// SimulateRequest is the JSON body of POST /v1/simulate.
type SimulateRequest struct {
	// Model is a catalog model name (see /v1/models), e.g. "resnet50".
	Model string `json:"model"`
	// Accel is a catalog accelerator name (see /v1/accelerators):
	// spacx, spacx-noba, simba, popstar.
	Accel string `json:"accel"`
	// Mode is the data-residency mode: "whole" (default) or "layer".
	Mode string `json:"mode,omitempty"`
	// Batch is the number of samples processed together, in [1,
	// MaxRequestBatch]; omitted means 1.
	Batch int `json:"batch"`
	// LossBudgetDB optionally rejects the query (422) when the
	// accelerator's worst-case optical insertion loss exceeds this budget.
	// Zero disables the check; it only applies to accelerators that report
	// a loss figure.
	LossBudgetDB float64 `json:"loss_budget_db,omitempty"`
}

// SimulateResponse is the JSON body answering /v1/simulate. Identical
// queries always produce byte-identical bodies: the encoder is
// deterministic and cached bodies are returned verbatim.
type SimulateResponse struct {
	Model string `json:"model"`
	Accel string `json:"accel"`
	Mode  string `json:"mode"`
	Batch int    `json:"batch"`

	Layers     int     `json:"layers"`
	DRAMBytes  int64   `json:"dram_bytes"`
	ExecSec    float64 `json:"exec_sec"`
	ComputeSec float64 `json:"compute_sec"`
	CommSec    float64 `json:"comm_sec"`

	TotalEnergyJ   float64 `json:"total_energy_j"`
	ComputeEnergyJ float64 `json:"compute_energy_j"`
	NetworkEnergyJ float64 `json:"network_energy_j"`

	// WorstCaseLossDB is the accelerator's worst-case optical path loss;
	// omitted for accelerators without a photonic loss model.
	WorstCaseLossDB *float64 `json:"worst_case_loss_db,omitempty"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// modelEntry is one catalog model. model builds it once, on first use, and
// every request shares that value read-only: network models are frozen at
// construction and sim.Request applies a batch to a copy of each layer.
type modelEntry struct {
	Name      string // request alias
	Canonical string // paper name
	build     func() dnn.Model
	model     func() dnn.Model
}

func modelOf(name, canonical string, build func() dnn.Model) modelEntry {
	return modelEntry{Name: name, Canonical: canonical, build: build, model: sync.OnceValue(build)}
}

// modelCatalog lists every servable model, evaluation benchmarks first.
var modelCatalog = []modelEntry{
	modelOf("resnet50", "ResNet-50", dnn.ResNet50),
	modelOf("vgg16", "VGG-16", dnn.VGG16),
	modelOf("densenet201", "DenseNet-201", dnn.DenseNet201),
	modelOf("efficientnetb7", "EfficientNet-B7", dnn.EfficientNetB7),
	modelOf("alexnet", "AlexNet", dnn.AlexNet),
	modelOf("mobilenetv2", "MobileNetV2", dnn.MobileNetV2),
}

// accelEntry is one catalog accelerator. built constructs it, its network
// fingerprint and its loss figure once, on first use; every request shares
// that value read-only (dataflows are stateless values and network models
// are frozen at construction).
type accelEntry struct {
	Name        string
	Description string
	build       func() sim.Accelerator
	// lossDB reports the worst-case optical insertion loss, ok=false for
	// accelerators without a photonic loss model.
	lossDB func() (float64, bool)
	built  func() builtAccel
}

// builtAccel is an accelerator entry's shared, once-built value.
type builtAccel struct {
	acc     sim.Accelerator
	fp      string // network fingerprint; "" when the network has none
	lossDB  float64
	hasLoss bool
}

func accelOf(name, description string, build func() sim.Accelerator, lossDB func() (float64, bool)) accelEntry {
	return accelEntry{
		Name: name, Description: description, build: build, lossDB: lossDB,
		built: sync.OnceValue(func() builtAccel {
			acc := build()
			fp, _ := network.FingerprintOf(acc.Arch.Net)
			loss, hasLoss := lossDB()
			return builtAccel{acc: acc, fp: fp, lossDB: loss, hasLoss: hasLoss}
		}),
	}
}

// spacxWorstCaseLoss is the worst-case cross-chiplet channel loss of the
// default SPACX network (Equation 2's Closs term).
func spacxWorstCaseLoss() (float64, bool) {
	cfg, err := sim.SPACXAccelConfig()
	if err != nil {
		return 0, false
	}
	return float64(cfg.CrossChannelBudget().Loss()), true
}

func noLoss() (float64, bool) { return 0, false }

// accelCatalog lists every servable accelerator, paper order.
var accelCatalog = []accelEntry{
	accelOf("spacx",
		"SPACX: hierarchical photonic network, broadcast OS dataflow, bandwidth allocation on",
		sim.SPACXAccel, spacxWorstCaseLoss),
	accelOf("spacx-noba",
		"SPACX with the flexible bandwidth-allocation scheme disabled",
		sim.SPACXAccelNoBA, spacxWorstCaseLoss),
	accelOf("simba",
		"Simba: all-electrical meshes, weight-stationary dataflow",
		sim.SimbaAccel, noLoss),
	accelOf("popstar",
		"POPSTAR: photonic package crossbar, electrical chiplet meshes, WS dataflow",
		sim.POPSTARAccel, noLoss),
}

func modelByName(name string) (modelEntry, bool) {
	for _, e := range modelCatalog {
		if e.Name == name {
			return e, true
		}
	}
	return modelEntry{}, false
}

func accelByName(name string) (accelEntry, bool) {
	for _, e := range accelCatalog {
		if e.Name == name {
			return e, true
		}
	}
	return accelEntry{}, false
}

// decodeSimulateRequest parses and validates a /v1/simulate body without
// touching any simulator state. It is strict — unknown fields, trailing
// data, out-of-range values, and unknown catalog names are all errors — and
// must never panic on arbitrary input (see FuzzSimulateRequest). The
// returned request is normalized: empty mode becomes "whole", an omitted
// batch becomes 1.
func decodeSimulateRequest(data []byte, maxBatch int) (SimulateRequest, error) {
	var req SimulateRequest
	// The shallower batch field shadows req.Batch, so an explicit 0 is told
	// apart from an omitted batch.
	wire := struct {
		*SimulateRequest
		Batch *int `json:"batch"`
	}{SimulateRequest: &req}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return SimulateRequest{}, fmt.Errorf("decode request: %w", err)
	}
	if dec.More() {
		return SimulateRequest{}, fmt.Errorf("trailing data after request object")
	}
	req.Batch = 1
	if wire.Batch != nil {
		req.Batch = *wire.Batch
	}
	return checkSimulateRequest(req, maxBatch)
}

// checkSimulateRequest validates a decoded request against the catalogs
// and the accepted ranges, and normalizes an empty mode to "whole". A sweep
// validates each grid point through it directly (see FuzzSweepPoint).
func checkSimulateRequest(req SimulateRequest, maxBatch int) (SimulateRequest, error) {
	if req.Model == "" {
		return SimulateRequest{}, fmt.Errorf("missing required field %q", "model")
	}
	if _, ok := modelByName(req.Model); !ok {
		return SimulateRequest{}, fmt.Errorf("unknown model %q (see /v1/models)", req.Model)
	}
	if req.Accel == "" {
		return SimulateRequest{}, fmt.Errorf("missing required field %q", "accel")
	}
	if _, ok := accelByName(req.Accel); !ok {
		return SimulateRequest{}, fmt.Errorf("unknown accelerator %q (see /v1/accelerators)", req.Accel)
	}
	switch req.Mode {
	case "":
		req.Mode = "whole"
	case "whole", "layer":
	default:
		return SimulateRequest{}, fmt.Errorf("unknown mode %q (whole, layer)", req.Mode)
	}
	if req.Batch < 1 || req.Batch > maxBatch {
		return SimulateRequest{}, fmt.Errorf("batch must be in [1, %d], got %d", maxBatch, req.Batch)
	}
	if req.LossBudgetDB < 0 {
		return SimulateRequest{}, fmt.Errorf("loss_budget_db must be >= 0, got %g", req.LossBudgetDB)
	}
	return req, nil
}

// modeOf maps a validated wire mode ("whole" or "layer") to the simulator's.
func modeOf(mode string) sim.Mode {
	if mode == "layer" {
		return sim.LayerByLayer
	}
	return sim.WholeInference
}

// query is one admitted simulation lookup: the normalized wire request, the
// sim-layer request it resolves to, the cache key, and the accelerator's
// loss figure.
type query struct {
	wire    SimulateRequest
	req     sim.Request
	key     string
	lossDB  float64
	hasLoss bool
}

// buildQuery resolves a decoded request against the catalogs and derives
// the cache key: network fingerprint × model × mode × batch. The
// fingerprint — not the accelerator name — keys the cache, so two names
// that build identical networks share entries and a config change can never
// serve stale results.
func buildQuery(req SimulateRequest) (query, error) {
	me, _ := modelByName(req.Model)
	ae, _ := accelByName(req.Accel)
	a := ae.built()
	if a.fp == "" {
		// Catalog networks all fingerprint; a non-fingerprinting one would
		// defeat result caching, so refuse to guess.
		return query{}, fmt.Errorf("accelerator %q has no network fingerprint", req.Accel)
	}
	q := query{
		wire: req,
		req: sim.Request{
			Accel: a.acc,
			Model: me.model(),
			Mode:  modeOf(req.Mode),
			Batch: req.Batch,
		},
		key:     a.fp + "|" + ae.Name + "|" + me.Name + "|" + req.Mode + "|" + strconv.Itoa(req.Batch),
		lossDB:  a.lossDB,
		hasLoss: a.hasLoss,
	}
	return q, nil
}

// checkLossBudget enforces the request's optional loss budget against the
// accelerator's worst-case optical path loss.
func (q query) checkLossBudget() error {
	if q.wire.LossBudgetDB <= 0 || !q.hasLoss {
		return nil
	}
	if q.lossDB > q.wire.LossBudgetDB {
		return fmt.Errorf("worst-case optical loss %.2f dB exceeds loss budget %.2f dB",
			q.lossDB, q.wire.LossBudgetDB)
	}
	return nil
}

// encodeSimulateResponse renders the deterministic response body for one
// completed simulation. It reads only the model totals, so res may come
// from sim.Request.Totals; the layer count is the query model's.
func encodeSimulateResponse(q query, res sim.ModelResult) ([]byte, error) {
	resp := SimulateResponse{
		Model: q.wire.Model,
		Accel: q.wire.Accel,
		Mode:  q.wire.Mode,
		Batch: q.wire.Batch,

		Layers:     len(q.req.Model.Layers),
		DRAMBytes:  res.DRAMBytes,
		ExecSec:    res.ExecSec,
		ComputeSec: res.ComputeSec,
		CommSec:    res.CommSec,

		TotalEnergyJ:   res.TotalEnergy,
		ComputeEnergyJ: res.ComputeEnergy,
		NetworkEnergyJ: res.NetworkEnergy,
	}
	if q.hasLoss {
		loss := q.lossDB
		resp.WorstCaseLossDB = &loss
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, fmt.Errorf("serve: encode response: %w", err)
	}
	return append(b, '\n'), nil
}
