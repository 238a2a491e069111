package salsa

import (
	"context"
	"fmt"

	"salsa/internal/cdfg"
	"salsa/internal/core"
)

// Request bundles one complete allocation ask — graph, schedule
// parameters and search configuration — into a single value the serving
// layer (internal/service) and the CLI can execute and cache uniformly.
// Allocation is a deterministic function of a normalized Request (minus
// the engine's worker count and the caller's deadline), which is what
// makes results content-addressable.
type Request struct {
	Graph  *cdfg.Graph
	Params Params

	// Mode selects the binding model: "salsa" (the extended model,
	// default) or "traditional" (the whole-lifetime baseline).
	Mode string
	// Seed seeds the restart portfolio; 0 means 1.
	Seed int64
	// Restarts is the portfolio width; 0 means 3.
	Restarts int

	// Engine tunes the run without affecting the canonical result
	// (workers). A deadline on Execute's ctx truncates it instead
	// (partial result).
	Engine EngineConfig
}

// Normalize returns the request with defaults applied. Two requests
// with equal normalized (Graph, Params, Mode, Seed, Restarts) produce
// byte-identical complete results, whatever their Engine configs.
func (r Request) Normalize() Request {
	if r.Mode == "" {
		r.Mode = "salsa"
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Restarts <= 0 {
		r.Restarts = 3
	}
	return r
}

// options maps the request's mode to core search options.
func (r Request) options() (Options, error) {
	switch r.Mode {
	case "salsa":
		return SALSAOptions(r.Seed), nil
	case "traditional":
		return TraditionalOptions(r.Seed), nil
	default:
		return Options{}, fmt.Errorf("unknown mode %q (want salsa or traditional)", r.Mode)
	}
}

// Execute compiles the request's graph and runs its restart portfolio
// on the parallel engine. Cancelling ctx, or its deadline, stops the
// search and returns the best allocation found so far — the anytime
// result callers report as partial.
func Execute(ctx context.Context, req Request) (*Design, *Result, *Stats, error) {
	req = req.Normalize()
	opts, err := req.options()
	if err != nil {
		return nil, nil, nil, err
	}
	des, err := Compile(req.Graph, req.Params)
	if err != nil {
		return nil, nil, nil, err
	}
	res, stats, err := des.AllocatePortfolio(ctx, Restarts(opts, req.Restarts), req.Engine)
	if err != nil {
		return des, nil, stats, err
	}
	return des, res, stats, nil
}

// CostJSON is the wire form of a binding cost breakdown.
type CostJSON struct {
	FUs       int `json:"fus"`
	FUArea    int `json:"fu_area"`
	Registers int `json:"registers"`
	Mux       int `json:"mux"`
	Total     int `json:"total"`
}

// ResultJSON is the machine-readable allocation result schema shared by
// the salsad service and `salsa -json`, so CLI and service outputs are
// directly diffable. It deliberately carries no wall-clock or
// host-dependent fields: a complete (non-partial) ResultJSON is a
// deterministic function of the request.
type ResultJSON struct {
	Graph       string `json:"graph"`
	Fingerprint string `json:"fingerprint"`
	Mode        string `json:"mode"`
	Seed        int64  `json:"seed"`
	Restarts    int    `json:"restarts"`
	Steps       int    `json:"steps"`

	Cost         CostJSON `json:"cost"`
	MergedMux    int      `json:"merged_mux"`
	PassThroughs int      `json:"pass_throughs"`
	Copies       int      `json:"copies"`

	Trials        int    `json:"trials"`
	MovesTried    int    `json:"moves_tried"`
	MovesAccepted int    `json:"moves_accepted"`
	InitialCost   int    `json:"initial_cost"`
	Stop          string `json:"stop"`

	// Partial marks a result truncated by a deadline: legal and
	// Check-valid, but not the canonical full-portfolio result (and
	// therefore never cached by the service).
	Partial bool `json:"partial"`
}

// BuildResultJSON assembles the shared result schema from a finished
// allocation. stats may be nil (e.g. the constructive matching path);
// the result counts as partial when its own search was cancelled or any
// portfolio job was cut off by the deadline.
func BuildResultJSON(g *cdfg.Graph, steps int, mode string, seed int64, restarts int, res *Result, stats *Stats) ResultJSON {
	partial := res.Stop == core.StopCancelled
	if stats != nil && stats.Cancelled > 0 {
		partial = true
	}
	return ResultJSON{
		Graph:       g.Name,
		Fingerprint: g.Fingerprint(),
		Mode:        mode,
		Seed:        seed,
		Restarts:    restarts,
		Steps:       steps,
		Cost: CostJSON{
			FUs:       res.Cost.FUsUsed,
			FUArea:    res.Cost.FUArea,
			Registers: res.Cost.RegsUsed,
			Mux:       res.Cost.MuxCost,
			Total:     res.Cost.Total,
		},
		MergedMux:     res.MergedMux,
		PassThroughs:  res.Binding.NumPass(),
		Copies:        res.Binding.NumCopies(),
		Trials:        res.Trials,
		MovesTried:    res.MovesTried,
		MovesAccepted: res.MovesAccepted,
		InitialCost:   res.InitialCost.Total,
		Stop:          res.Stop.String(),
		Partial:       partial,
	}
}
