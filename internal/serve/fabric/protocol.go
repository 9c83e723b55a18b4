// Package fabric is the distributed half of the sweep engine: a coordinator
// that shards a sweep's point space across a fleet of registered workers
// over a versioned, stdlib-only JSON-over-HTTP wire protocol, and merges
// their results index-addressed — exactly like engine.Map does locally — so
// a distributed sweep's output is byte-identical to a single-process run.
//
// The protocol is four POST endpoints under /fabric/v1/:
//
//	register   a worker joins the fleet and receives its id + cadences
//	heartbeat  liveness + lease reconciliation (cancelled leases, drain)
//	lease      a worker pulls a batch of points from its shard (long-poll)
//	result     a worker uploads the outcomes of a leased batch
//
// Sharding routes each point to a worker by consistent hashing of the
// point's cache key (the network-fingerprint-based key the serving layer
// already uses), so each worker's response LRU stays hot for its shard.
// Leases carry a TTL: a worker that dies or stalls has its leases expired
// and the points re-leased to survivors. Results are first-write-wins per
// point — a stale upload from an expired lease is accepted if the point is
// still pending and counted as a duplicate otherwise — which keeps every
// point computed-and-counted exactly once.
//
// The package deliberately does not import the serving core: point specs
// and result bodies are opaque bytes, so internal/serve can fan its sweep
// points out through a Coordinator without an import cycle, and the
// protocol can be tested (and fuzzed) in isolation.
package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"

	"spacx/internal/obs"
	"spacx/internal/obs/tracing"
)

// ProtoVersion is bumped whenever a wire message changes incompatibly; both
// sides reject messages carrying a version they do not speak, so a skewed
// worker fails loudly at register time instead of corrupting a sweep.
//
// v2 added fleet observability: trace/span propagation on lease and result
// messages, span batches and a metrics snapshot piggybacked on heartbeats,
// and structured build info at registration. decodeStrict rejects unknown
// fields, so the additions are wire-incompatible with v1 peers by design.
const ProtoVersion = 2

// maxWireBody bounds every decoded protocol body. Result uploads carry
// point bodies (a few KiB each, LeasePoints per message), so 8 MiB is
// generous without letting a broken peer balloon coordinator memory.
const maxWireBody = 8 << 20

// RegisterRequest is the body of POST /fabric/v1/register.
type RegisterRequest struct {
	Proto int `json:"proto"`
	// Name is an operator-facing label ("worker-3"); it does not need to be
	// unique — the coordinator assigns the identifying WorkerID.
	Name string `json:"name,omitempty"`
	// Version is the worker's build stamp, recorded for skew diagnostics.
	Version string `json:"version,omitempty"`
	// GoVersion and Revision carry the worker's structured build info
	// (internal/buildinfo), surfaced per worker on GET /fleet so version skew
	// is attributable to a toolchain or a commit, not just a stamp mismatch.
	GoVersion string `json:"go_version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	// Jobs is the worker's intra-batch parallelism, informational.
	Jobs int `json:"jobs,omitempty"`
}

// RegisterResponse answers a successful registration.
type RegisterResponse struct {
	Proto    int    `json:"proto"`
	WorkerID string `json:"worker_id"`
	// LeaseTTLSec is how long the worker has to upload a leased batch
	// before the coordinator re-leases it elsewhere.
	LeaseTTLSec float64 `json:"lease_ttl_sec"`
	// HeartbeatSec is the cadence the worker must heartbeat at; missing
	// several flags the worker dead and requeues its work.
	HeartbeatSec float64 `json:"heartbeat_sec"`
}

// HeartbeatRequest is the body of POST /fabric/v1/heartbeat: liveness plus
// the worker's view of its in-flight leases, which the coordinator
// reconciles against its own.
type HeartbeatRequest struct {
	Proto    int    `json:"proto"`
	WorkerID string `json:"worker_id"`
	// Leases are the lease ids the worker is still computing.
	Leases []string `json:"leases,omitempty"`
	// Spans are worker-side span batches that missed their upload (the lease
	// was cancelled, nothing was computed, or the upload failed) riding the
	// next heartbeat so the coordinator can still stitch them.
	Spans []SpanBatch `json:"spans,omitempty"`
	// Metrics is the worker's registry snapshot, pushed every beat for
	// coordinator-side federation (nil when the worker has no registry).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// SpanBatch is one worker-recorded span set bound for stitching: the
// coordinator-trace id and parent span id (echoed from the LeaseResponse
// that carried them) plus the worker's flat completed spans.
type SpanBatch struct {
	Trace string             `json:"trace"`
	Span  int64              `json:"span,omitempty"`
	Spans []tracing.SpanData `json:"spans"`
}

// HeartbeatResponse tells the worker which of its leases are no longer
// wanted (expired, reassigned, or their sweep was cancelled) so it can
// cancel the in-flight compute, and whether the coordinator is draining.
type HeartbeatResponse struct {
	Proto     int      `json:"proto"`
	Cancelled []string `json:"cancelled,omitempty"`
	Drain     bool     `json:"drain,omitempty"`
}

// LeaseRequest is the body of POST /fabric/v1/lease: a pull for work.
type LeaseRequest struct {
	Proto    int    `json:"proto"`
	WorkerID string `json:"worker_id"`
	// MaxPoints caps the batch handed out (0 = coordinator default).
	MaxPoints int `json:"max_points,omitempty"`
	// WaitSec long-polls: the coordinator holds the request up to this long
	// for work to appear before answering 204 (0 = answer immediately).
	WaitSec float64 `json:"wait_sec,omitempty"`
}

// Point is one sweep point travelling coordinator → worker: an index into
// the sweep's result slice, the routing/cache key, and an opaque spec the
// worker's compute function understands (for spacx-serve sweeps, the
// point's SimulateRequest JSON).
type Point struct {
	Index int             `json:"index"`
	Key   string          `json:"key"`
	Spec  json.RawMessage `json:"spec"`
}

// LeaseResponse hands a worker one leased batch. The worker must upload a
// ResultUpload for LeaseID within TTLSec or the points are re-leased.
type LeaseResponse struct {
	Proto   int     `json:"proto"`
	LeaseID string  `json:"lease_id"`
	SweepID string  `json:"sweep_id"`
	TTLSec  float64 `json:"ttl_sec"`
	Points  []Point `json:"points"`
	// Trace and Span propagate the submitting job's trace id and the
	// coordinator's fabric:lease span id (also carried as the X-Spacx-Trace
	// response header); the worker records its own spans under a local trace
	// and ships them back tagged with this pair for stitching. Empty when the
	// sweep was submitted untraced.
	Trace string `json:"trace,omitempty"`
	Span  int64  `json:"span,omitempty"`
}

// Outcome is one computed point travelling worker → coordinator. Body is
// the exact result bytes (base64 on the wire, so byte-identity survives
// transport); Error is a deterministic point-level failure — the same
// string a local run would have recorded for the point.
type Outcome struct {
	Index int    `json:"index"`
	Body  []byte `json:"body,omitempty"`
	Error string `json:"error,omitempty"`
}

// ResultUpload is the body of POST /fabric/v1/result: the outcomes of one
// leased batch (only the points actually computed — a cancelled batch
// uploads what it finished).
type ResultUpload struct {
	Proto    int       `json:"proto"`
	WorkerID string    `json:"worker_id"`
	LeaseID  string    `json:"lease_id"`
	SweepID  string    `json:"sweep_id"`
	Outcomes []Outcome `json:"outcomes"`
	// Trace and Span echo the LeaseResponse's stitching coordinates, and
	// Spans carries the worker's completed spans for this batch. Echoing the
	// pair (rather than having the coordinator re-derive it from the lease)
	// keeps stale uploads stitchable after their lease is gone.
	Trace string             `json:"trace,omitempty"`
	Span  int64              `json:"span,omitempty"`
	Spans []tracing.SpanData `json:"spans,omitempty"`
}

// ResultResponse acknowledges an upload. Stale reports that the lease had
// already expired (the outcomes were still accepted for pending points);
// Cancelled that the sweep is gone and the worker should drop related work.
type ResultResponse struct {
	Proto      int  `json:"proto"`
	Accepted   int  `json:"accepted"`
	Duplicates int  `json:"duplicates"`
	Stale      bool `json:"stale,omitempty"`
	Cancelled  bool `json:"cancelled,omitempty"`
}

// decodeStrict parses data into v the way every fabric message is parsed:
// unknown fields, trailing data, and oversized bodies are errors, and no
// input may panic (see FuzzLeaseRequest / FuzzResultUpload).
func decodeStrict(data []byte, v any) error {
	if len(data) > maxWireBody {
		return fmt.Errorf("fabric: message of %d bytes exceeds %d-byte cap", len(data), maxWireBody)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("fabric: decode message: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("fabric: trailing data after message object")
	}
	return nil
}

// checkProto rejects messages from peers speaking a different protocol.
func checkProto(proto int) error {
	if proto != ProtoVersion {
		return fmt.Errorf("fabric: protocol version %d, this build speaks %d", proto, ProtoVersion)
	}
	return nil
}

// DecodeRegisterRequest parses and validates a register body.
func DecodeRegisterRequest(data []byte) (RegisterRequest, error) {
	var req RegisterRequest
	if err := decodeStrict(data, &req); err != nil {
		return RegisterRequest{}, err
	}
	if err := checkProto(req.Proto); err != nil {
		return RegisterRequest{}, err
	}
	if req.Jobs < 0 {
		return RegisterRequest{}, fmt.Errorf("fabric: jobs must be >= 0, got %d", req.Jobs)
	}
	return req, nil
}

// DecodeHeartbeatRequest parses and validates a heartbeat body.
func DecodeHeartbeatRequest(data []byte) (HeartbeatRequest, error) {
	var req HeartbeatRequest
	if err := decodeStrict(data, &req); err != nil {
		return HeartbeatRequest{}, err
	}
	if err := checkProto(req.Proto); err != nil {
		return HeartbeatRequest{}, err
	}
	if req.WorkerID == "" {
		return HeartbeatRequest{}, fmt.Errorf("fabric: missing worker_id")
	}
	for i, b := range req.Spans {
		if b.Trace == "" {
			return HeartbeatRequest{}, fmt.Errorf("fabric: span batch %d has no trace id", i)
		}
		if len(b.Spans) == 0 {
			return HeartbeatRequest{}, fmt.Errorf("fabric: span batch %d for trace %s is empty", i, b.Trace)
		}
	}
	return req, nil
}

// DecodeLeaseRequest parses and validates a lease body.
func DecodeLeaseRequest(data []byte) (LeaseRequest, error) {
	var req LeaseRequest
	if err := decodeStrict(data, &req); err != nil {
		return LeaseRequest{}, err
	}
	if err := checkProto(req.Proto); err != nil {
		return LeaseRequest{}, err
	}
	if req.WorkerID == "" {
		return LeaseRequest{}, fmt.Errorf("fabric: missing worker_id")
	}
	if req.MaxPoints < 0 {
		return LeaseRequest{}, fmt.Errorf("fabric: max_points must be >= 0, got %d", req.MaxPoints)
	}
	if req.WaitSec < 0 {
		return LeaseRequest{}, fmt.Errorf("fabric: wait_sec must be >= 0, got %g", req.WaitSec)
	}
	return req, nil
}

// DecodeResultUpload parses and validates a result body. Every outcome must
// name a non-negative index and carry a body or an error (or both empty is
// rejected — an uncomputed point must simply not be uploaded). Duplicate
// indices within one upload are rejected outright: a well-formed worker
// never produces them, so they indicate corruption, not a race.
func DecodeResultUpload(data []byte) (ResultUpload, error) {
	var up ResultUpload
	if err := decodeStrict(data, &up); err != nil {
		return ResultUpload{}, err
	}
	if err := checkProto(up.Proto); err != nil {
		return ResultUpload{}, err
	}
	if up.WorkerID == "" {
		return ResultUpload{}, fmt.Errorf("fabric: missing worker_id")
	}
	if up.LeaseID == "" {
		return ResultUpload{}, fmt.Errorf("fabric: missing lease_id")
	}
	if up.SweepID == "" {
		return ResultUpload{}, fmt.Errorf("fabric: missing sweep_id")
	}
	seen := make(map[int]bool, len(up.Outcomes))
	for i, o := range up.Outcomes {
		if o.Index < 0 {
			return ResultUpload{}, fmt.Errorf("fabric: outcome %d has negative index %d", i, o.Index)
		}
		if len(o.Body) == 0 && o.Error == "" {
			return ResultUpload{}, fmt.Errorf("fabric: outcome %d (point %d) has neither body nor error", i, o.Index)
		}
		if seen[o.Index] {
			return ResultUpload{}, fmt.Errorf("fabric: duplicate outcome for point %d", o.Index)
		}
		seen[o.Index] = true
	}
	if len(up.Spans) > 0 && up.Trace == "" {
		return ResultUpload{}, fmt.Errorf("fabric: upload carries %d spans but no trace id", len(up.Spans))
	}
	return up, nil
}
