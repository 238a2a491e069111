// Package salsa is the public entry point of the library: a
// reproduction of "Data Path Allocation using an Extended Binding
// Model" (Krishnamoorthy & Nestor, DAC 1992).
//
// The flow is: describe a behavior as a CDFG (package cdfg's builder or
// JSON), schedule it onto control steps, analyze value lifetimes, and
// allocate functional units, registers and interconnect under either
// the traditional binding model or the paper's extended (SALSA) model —
// value segments that may change registers mid-life, value copies, and
// functional-unit pass-throughs. Finished allocations can be verified
// by cycle-accurate simulation and emitted as a structural RTL netlist.
//
// Typical use:
//
//	g := workloads.EWF()                        // or build your own
//	des, err := salsa.Compile(g, salsa.Params{Steps: 19, ExtraRegisters: 1})
//	res, err := des.Allocate(salsa.SALSAOptions(1), 3)
//	err = des.Verify(res)
//	nl, err := des.EmitRTL(res, "ewf_dp")
package salsa

import (
	"context"
	"fmt"

	"salsa/internal/cdfg"
	"salsa/internal/core"
	"salsa/internal/datapath"
	"salsa/internal/dpsim"
	"salsa/internal/engine"
	"salsa/internal/lifetime"
	"salsa/internal/rtl"
	"salsa/internal/sched"
)

// Re-exported types so most client code needs only this package and the
// cdfg builder.
type (
	// Options configures one allocation run (see core.Options).
	Options = core.Options
	// Result is a finished allocation with its costs.
	Result = core.Result
	// Netlist is an emitted RTL description.
	Netlist = rtl.Netlist
	// Env supplies concrete input/state values for simulation.
	Env = cdfg.Env

	// Job is one entry of a search portfolio (see engine.Job).
	Job = engine.Job
	// EngineConfig tunes the parallel portfolio engine: worker count,
	// incumbent pruning, and the telemetry callback.
	EngineConfig = engine.Config
	// Stats reports a portfolio run: per-job canonical results plus
	// aggregate counts (see engine.Stats).
	Stats = engine.Stats
	// Event is one progress-telemetry record (see engine.Event).
	Event = engine.Event
)

// Restarts builds the classic multi-start portfolio: n jobs seeded
// opts.Seed .. opts.Seed+n-1.
func Restarts(opts Options, n int) []Job { return engine.Restarts(opts, n) }

// WarmPortfolio is the extended-model portfolio of AllocateBoth: the
// cold restarts of opts, then, when baseline is non-nil, a warm start
// from its binding. The warm start comes last: the engine breaks cost
// ties by lowest job index, so it wins only by strict improvement.
func WarmPortfolio(opts Options, restarts int, baseline *Result) []Job {
	jobs := Restarts(opts, restarts)
	if baseline != nil {
		warm := opts
		warm.Initial = baseline.Binding
		jobs = append(jobs, Job{Label: "warm-start", Opts: warm})
	}
	return jobs
}

// SALSAOptions returns the full extended-binding-model configuration.
func SALSAOptions(seed int64) Options { return core.SALSAOptions(seed) }

// TraditionalOptions returns the classical whole-lifetime binding model
// used as the comparison baseline.
func TraditionalOptions(seed int64) Options { return core.TraditionalOptions(seed) }

// Params fixes the scheduling side of a compilation.
type Params struct {
	// Steps is the schedule length; 0 means critical path + 2.
	Steps int
	// PipelinedMultipliers selects two-stage multipliers with an
	// initiation interval of one control step.
	PipelinedMultipliers bool
	// ExtraRegisters is the register budget beyond the minimum the
	// schedule requires (the paper's storage-vs-interconnect knob).
	ExtraRegisters int
	// DisablePassHardware removes the ALUs' No-Op pass-through
	// capability; the zero value keeps the paper's setting (adders
	// usable as pass-throughs).
	DisablePassHardware bool
	// ForceDirected schedules with force-directed scheduling instead of
	// the list scheduler; the FU budget is then whatever the balanced
	// schedule needs rather than the list scheduler's minimum.
	ForceDirected bool
}

// Design is a scheduled, lifetime-analyzed behavior bound to a hardware
// budget, ready for allocation.
type Design struct {
	Graph    *cdfg.Graph
	Analysis *lifetime.Analysis
	Limits   sched.Limits
	Hardware *datapath.Hardware
}

// Compile validates and schedules the graph with the minimum FU budget
// for the requested length and builds the register/FU hardware set. It
// is the one place a graph and Params become a Design: the CLI, the
// service, the experiment tables and the differential oracle all
// compile through it. A length below the critical path is rejected
// before scheduling, with the same error under either scheduler.
func Compile(g *cdfg.Graph, p Params) (*Design, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	d := cdfg.DefaultDelays(p.PipelinedMultipliers)
	cp := g.CriticalPath(d)
	steps := p.Steps
	if steps == 0 {
		steps = cp + 2
	}
	if steps < cp {
		return nil, fmt.Errorf("%d steps is below the critical path (%d)", steps, cp)
	}
	var (
		a   *lifetime.Analysis
		lim sched.Limits
		err error
	)
	if p.ForceDirected {
		a, err = lifetime.RepairFDS(g, d, steps)
		if err == nil {
			lim = a.Sched.MinLimits()
		}
	} else {
		a, lim, err = lifetime.MinFUAnalysis(g, d, steps)
	}
	if err != nil {
		return nil, err
	}
	var inputs []string
	for i := range g.Nodes {
		if g.Nodes[i].Op == cdfg.Input {
			inputs = append(inputs, g.Nodes[i].Name)
		}
	}
	hw := datapath.NewHardware(lim, a.MinRegs+p.ExtraRegisters, inputs, !p.DisablePassHardware)
	return &Design{Graph: g, Analysis: a, Limits: lim, Hardware: hw}, nil
}

// Steps returns the schedule length in control steps.
func (d *Design) Steps() int { return d.Analysis.Sched.Steps }

// MinRegisters returns the smallest register count any allocation of
// this schedule can use.
func (d *Design) MinRegisters() int { return d.Analysis.MinRegs }

// Allocate runs the restart portfolio on the parallel engine and
// returns the best allocation found. The result is deterministic for a
// given opts/restarts pair, independent of how many workers the engine
// uses (see AllocatePortfolio for the full engine surface).
func (d *Design) Allocate(opts Options, restarts int) (*Result, error) {
	res, _, err := d.AllocatePortfolio(context.Background(), Restarts(opts, restarts), EngineConfig{})
	return res, err
}

// AllocatePortfolio runs an arbitrary job portfolio on the parallel
// engine: jobs fan out over cfg.Workers goroutines, share an incumbent
// cost for pruning, and reduce to a deterministic winner. Cancelling
// ctx, or its deadline, stops the search and returns the best
// allocation found so far.
func (d *Design) AllocatePortfolio(ctx context.Context, jobs []Job, cfg EngineConfig) (*Result, *Stats, error) {
	return engine.Run(ctx, d.Analysis, d.Hardware, jobs, cfg)
}

// AllocateBoth runs the traditional baseline, then the extended-model
// WarmPortfolio, and returns both results (the extended result never
// loses to the baseline).
func (d *Design) AllocateBoth(seed int64, restarts int) (salsaRes, tradRes *Result, err error) {
	// The traditional model can be infeasible at tight register budgets
	// (whole-lifetime registers color a circular-arc graph, which may
	// need more than the maximum-overlap register count); the extended
	// model is not, which is itself one of the paper's points. A nil
	// tradRes signals infeasibility.
	tradRes, _ = d.Allocate(TraditionalOptions(seed), restarts)
	jobs := WarmPortfolio(SALSAOptions(seed), restarts, tradRes)
	salsaRes, _, err = d.AllocatePortfolio(context.Background(), jobs, EngineConfig{})
	if err != nil {
		return nil, tradRes, err
	}
	return salsaRes, tradRes, nil
}

// verifySeed seeds Verify's stimulus. Any fixed seed serves: a correct
// allocation matches the reference semantics on every stimulus.
const verifySeed = 12345

// Verify cross-checks the allocation against the reference semantics by
// cycle-accurate simulation on pseudo-random stimulus (dpsim.Stimulus),
// four iterations for loops.
func (d *Design) Verify(res *Result) error {
	iters := 1
	if d.Graph.Cyclic {
		iters = 4
	}
	_, err := dpsim.Run(res.Binding, dpsim.Stimulus(d.Graph, verifySeed), iters)
	return err
}

// Simulate runs the allocated datapath on the given inputs for the
// given number of iterations and returns the last iteration's outputs.
func (d *Design) Simulate(res *Result, env Env, iters int) (map[string]int64, error) {
	r, err := dpsim.Run(res.Binding, env, iters)
	if err != nil {
		return nil, err
	}
	return r.Outputs, nil
}

// EmitRTL renders the allocation as a structural RTL netlist.
func (d *Design) EmitRTL(res *Result, moduleName string) (*Netlist, error) {
	return rtl.Emit(res.Binding, moduleName)
}

// Summary formats a one-line cost report for an allocation.
func Summary(res *Result) string {
	b := res.Binding
	return fmt.Sprintf("%d muxes (%d merged), %d registers, %d FUs, %d pass-throughs, %d copies",
		res.Cost.MuxCost, res.MergedMux, res.Cost.RegsUsed, res.Cost.FUsUsed,
		b.NumPass(), b.NumCopies())
}
