package service

import (
	"encoding/json"
	"fmt"
	"time"

	"salsa"
	"salsa/internal/cdfg"
)

// AllocateRequest is the wire form of one allocation request, accepted
// by POST /allocate (synchronous) and POST /jobs (asynchronous). Graph
// is the cdfg JSON schema (the same document `salsa -dump-json` writes
// and `salsa -cdfg` reads).
type AllocateRequest struct {
	Graph json.RawMessage `json:"graph"`

	// Schedule parameters (salsa.Params).
	Steps                int  `json:"steps,omitempty"`
	PipelinedMultipliers bool `json:"pipelined_multipliers,omitempty"`
	ExtraRegisters       int  `json:"extra_registers,omitempty"`
	DisablePassHardware  bool `json:"disable_pass_hardware,omitempty"`
	ForceDirected        bool `json:"force_directed,omitempty"`

	// Search parameters. Mode defaults to "salsa", Seed to 1, Restarts
	// to 3 (salsa.Request.Normalize).
	Mode     string `json:"mode,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Restarts int    `json:"restarts,omitempty"`

	// TimeoutMS bounds this request's search wall time in milliseconds.
	// 0 selects the server default; values above the server maximum are
	// clamped. A deadline that fires mid-search yields HTTP 200 with
	// "partial": true; one that fires before any allocation exists
	// yields HTTP 408. The deadline is intentionally NOT part of the
	// cache key: complete results are deterministic whatever deadline
	// they ran under, and partial results are never cached.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// allocSpec is a validated, normalized allocation request: the executable
// salsa.Request plus its content address.
type allocSpec struct {
	req     salsa.Request
	timeout time.Duration
	// fingerprint is the graph's content address (cdfg.Fingerprint).
	fingerprint string
	// key is the result-cache / singleflight key: fingerprint plus the
	// normalized options that influence the canonical result. Engine
	// worker count and deadline are excluded — neither changes a
	// complete result's bytes.
	key string
}

// Request-size caps. A request above any of them is rejected before
// any work is scheduled, so a small request cannot demand unbounded
// engine jobs (restarts), hardware registers (extra_registers) or
// schedule length (steps) — nor, once journaled, replay that demand on
// every boot. Each cap is far above what the testdata corpus, the CLI
// defaults and the experiments use. Negative extra_registers and steps
// are rejected with 400 too; a negative restarts selects the default,
// like zero.
const (
	// MaxBodyBytes bounds a request body at salsad and at the router
	// alike: a longer one is answered 413 before it is decoded.
	MaxBodyBytes = 4 << 20

	// The caps on the decoded request; one over is answered 400.
	MaxRestarts       = 64
	MaxExtraRegisters = 64
	MaxSteps          = 1024
)

// normalize validates the wire request's graph and search options and
// resolves them to the normalized executable request. Shared by the
// backend's parseRequest and the router-facing ContentKey so the two
// can never disagree about what a request means.
func (ar *AllocateRequest) normalize() (salsa.Request, error) {
	if len(ar.Graph) == 0 {
		return salsa.Request{}, fmt.Errorf("missing required field %q", "graph")
	}
	for _, c := range []struct {
		field    string
		val, max int
	}{
		{"restarts", ar.Restarts, MaxRestarts},
		{"extra_registers", ar.ExtraRegisters, MaxExtraRegisters},
		{"steps", ar.Steps, MaxSteps},
	} {
		if c.val > c.max {
			return salsa.Request{}, fmt.Errorf("%s %d exceeds the cap of %d", c.field, c.val, c.max)
		}
	}
	for _, c := range []struct {
		field string
		val   int
	}{{"extra_registers", ar.ExtraRegisters}, {"steps", ar.Steps}} {
		if c.val < 0 {
			return salsa.Request{}, fmt.Errorf("negative %s %d", c.field, c.val)
		}
	}
	g, err := cdfg.ParseJSON(ar.Graph)
	if err != nil {
		return salsa.Request{}, err
	}
	req := salsa.Request{
		Graph: g,
		Params: salsa.Params{
			Steps:                ar.Steps,
			PipelinedMultipliers: ar.PipelinedMultipliers,
			ExtraRegisters:       ar.ExtraRegisters,
			DisablePassHardware:  ar.DisablePassHardware,
			ForceDirected:        ar.ForceDirected,
		},
		Mode:     ar.Mode,
		Seed:     ar.Seed,
		Restarts: ar.Restarts,
	}.Normalize()
	switch req.Mode {
	case "salsa", "traditional":
	default:
		return salsa.Request{}, fmt.Errorf("unknown mode %q (want salsa or traditional)", req.Mode)
	}
	if ar.TimeoutMS < 0 {
		return salsa.Request{}, fmt.Errorf("negative timeout_ms %d", ar.TimeoutMS)
	}
	return req, nil
}

// contentKey renders the result-cache / singleflight / routing key for
// a normalized request: the graph fingerprint plus every normalized
// option that influences the canonical result. Engine worker count and
// deadline are excluded — neither changes a complete result's bytes.
func contentKey(fp string, req salsa.Request) string {
	return fmt.Sprintf("%s|mode=%s seed=%d restarts=%d steps=%d pipelined=%t xregs=%d nopass=%t fds=%t",
		fp, req.Mode, req.Seed, req.Restarts, req.Params.Steps, req.Params.PipelinedMultipliers,
		req.Params.ExtraRegisters, req.Params.DisablePassHardware, req.Params.ForceDirected)
}

// ContentKey computes the request's content address: the graph
// fingerprint (the cluster routing key — every request for one graph
// lands on one shard, so its cache entry and singleflight collapse
// live in exactly one place) and the full result key (what the backend
// caches under, and what a router-side response cache must key by to
// stay byte-identical with the shard). It validates exactly as much as
// the backend's own request parsing, so a request the router accepts
// is never rejected as malformed by the shard it picks.
func (ar *AllocateRequest) ContentKey() (fingerprint, key string, err error) {
	req, err := ar.normalize()
	if err != nil {
		return "", "", err
	}
	fp := req.Graph.Fingerprint()
	return fp, contentKey(fp, req), nil
}

// parseRequest validates the wire request and resolves it to a spec.
func (s *Server) parseRequest(ar *AllocateRequest) (*allocSpec, error) {
	req, err := ar.normalize()
	if err != nil {
		return nil, err
	}
	timeout := s.cfg.DefaultTimeout
	if ar.TimeoutMS > 0 {
		// Clamp in milliseconds: converting a huge timeout_ms to a
		// Duration first would wrap it.
		timeout = s.cfg.MaxTimeout
		if ar.TimeoutMS <= s.cfg.MaxTimeout.Milliseconds() {
			timeout = time.Duration(ar.TimeoutMS) * time.Millisecond
		}
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	if s.hooks != nil && s.hooks.TrialPause != nil {
		req.Engine.TrialHook = s.hooks.TrialPause
	}
	fp := req.Graph.Fingerprint()
	return &allocSpec{
		req:         req,
		timeout:     timeout,
		fingerprint: fp,
		key:         contentKey(fp, req),
	}, nil
}

// ErrorBody renders the uniform error response document,
// {"error": msg}, that salsad, the router and the simulation fault
// plane answer failures with, and that the client reports a failed
// job's error in.
func ErrorBody(msg string) []byte {
	body, err := json.Marshal(map[string]string{"error": msg})
	if err != nil {
		// A map[string]string cannot fail to marshal; keep a plain
		// fallback rather than panicking in an error path.
		return []byte(`{"error":"internal error"}`)
	}
	return append(body, '\n')
}
