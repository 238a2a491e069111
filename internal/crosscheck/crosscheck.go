// Package crosscheck is the differential allocation oracle: for one
// seed it generates a random scheduled-CDFG case (internal/randgraph),
// compiles it, allocates it under both the traditional and the extended
// binding model on the parallel engine, and then cross-checks every
// independent view of the result against every other:
//
//   - the binding's own legality checker (binding.Check) re-validates
//     both allocations after the search returns;
//   - the reported cost is recomputed from scratch via binding.Eval;
//   - the extended result, warm-started from the traditional one, must
//     never cost more than the baseline it started from;
//   - the cycle-accurate datapath simulator (internal/dpsim) replays
//     both allocations against the CDFG reference semantics;
//   - the emitted RTL is parsed back and re-simulated at the gate level
//     (internal/vsim.VerifyBinding);
//   - the whole extended portfolio is re-run under a different engine
//     worker count with core.Options.Paranoid set, which compares the
//     delta cost of every candidate move with a full binding.Eval,
//     re-checks every accepted binding and compares the kept occupancy
//     with a rebuild; every job of the re-run must succeed and the
//     winning binding must be reproduced byte for byte.
//
// Any divergence between two views is a finding. A schedule the
// pipeline cannot compile (too few steps, unrepairable loop-carried
// overlap) is not a finding but an infeasible case, reported as such.
// Findings can be minimized with Shrink, which greedily reduces the
// graph and tightens the schedule while preserving the failing stage.
package crosscheck

import (
	"fmt"
	"strings"

	"salsa/internal/binding"
	"salsa/internal/cdfg"
	"salsa/internal/core"
	"salsa/internal/datapath"
	"salsa/internal/dpsim"
	"salsa/internal/engine"
	"salsa/internal/lifetime"
	"salsa/internal/randgraph"
	"salsa/internal/vsim"
)

// Status classifies one crosschecked case.
type Status string

const (
	// StatusOK: every stage agreed.
	StatusOK Status = "ok"
	// StatusInfeasible: the case cannot be compiled (schedule or
	// lifetime repair failed); no correctness claim is possible.
	StatusInfeasible Status = "infeasible"
	// StatusFinding: two views of the allocation disagreed.
	StatusFinding Status = "finding"
)

// Stage names identify where in the pipeline a finding surfaced; the
// shrinker preserves the stage while minimizing a failing case.
const (
	StageValidate    = "validate"
	StageCompile     = "compile"
	StageAllocate    = "alloc-extended"
	StageLegality    = "legality"
	StageCostEval    = "cost-eval"
	StageDominance   = "cost-dominance"
	StageDpsim       = "dpsim"
	StageDpsimTrad   = "dpsim-traditional"
	StageVsim        = "vsim"
	StageParanoid    = "paranoid"
	StageDeterminism = "determinism"
)

// Config tunes the oracle. The zero value is the fast configuration
// the salsafuzz driver and CI smoke runs use.
type Config struct {
	// Gen parameterizes the random generator (zero value = defaults).
	Gen randgraph.Params
	// Restarts is the number of cold restarts per model (default 2).
	Restarts int
	// MaxTrials and MovesPerTrial shrink the search to oracle scale
	// (defaults 6 and 150); correctness invariants hold at any budget.
	MaxTrials     int
	MovesPerTrial int
	// SimIters is the number of loop iterations the simulators replay
	// for cyclic graphs (default 4; straight-line graphs always run 1).
	SimIters int
	// DisableDeterminism skips the second engine run, the Paranoid
	// re-run under a different worker count (the most expensive
	// stage), and with it the paranoid and determinism stages.
	DisableDeterminism bool
	// Inject, when non-nil, corrupts a clone of the extended-model
	// binding before the re-verification stages. It exists so tests and
	// the salsafuzz -inject flag can prove the oracle catches (and the
	// shrinker minimizes) a deliberately planted bug; it is never set on
	// the real verification path.
	Inject func(*binding.Binding)
}

func (cfg Config) withDefaults() Config {
	if cfg.Restarts == 0 {
		cfg.Restarts = 2
	}
	if cfg.MaxTrials == 0 {
		cfg.MaxTrials = 6
	}
	if cfg.MovesPerTrial == 0 {
		cfg.MovesPerTrial = 150
	}
	if cfg.SimIters == 0 {
		cfg.SimIters = 4
	}
	return cfg
}

// Report is the outcome of crosschecking one case. All fields are
// deterministic functions of (seed, Config), so marshalled reports are
// byte-identical across runs and worker counts.
type Report struct {
	Seed   int64  `json:"seed"`
	Name   string `json:"name"`
	Nodes  int    `json:"nodes"`
	Ops    int    `json:"ops"`
	Cyclic bool   `json:"cyclic"`
	Steps  int    `json:"steps"`
	// ExtraRegs and PipelinedMul echo the generated case so a seed can
	// be replayed by hand (see the README's differential-testing notes).
	ExtraRegs    int     `json:"extra_regs"`
	PipelinedMul bool    `json:"pipelined_mul"`
	Status       Status  `json:"status"`
	Stage        string  `json:"stage,omitempty"`
	Detail       string  `json:"detail,omitempty"`
	TradCost     int     `json:"trad_cost"`  // -1 when the baseline is infeasible
	SalsaCost    int     `json:"salsa_cost"` // -1 before allocation succeeds
	Shrunk       *Shrunk `json:"shrunk,omitempty"`
}

// RunSeed generates the case for one seed and crosschecks it.
func (cfg Config) RunSeed(seed int64) *Report {
	return cfg.Run(seed, randgraph.Generate(seed, cfg.Gen))
}

// Run crosschecks one explicit case (used by RunSeed, the shrinker and
// the corpus-seeded fuzz target). The seed parameterizes the search
// portfolio and the simulation stimulus.
func (cfg Config) Run(seed int64, cs *randgraph.Case) *Report {
	cfg = cfg.withDefaults()
	g := cs.Graph
	rep := &Report{
		Seed: seed, Name: g.Name, Nodes: len(g.Nodes), Ops: g.NumOps(),
		Cyclic: g.Cyclic, Steps: cs.Steps,
		ExtraRegs: cs.ExtraRegs, PipelinedMul: cs.PipelinedMul,
		TradCost: -1, SalsaCost: -1,
	}
	fail := func(stage string, format string, args ...any) *Report {
		rep.Status = StatusFinding
		rep.Stage = stage
		rep.Detail = fmt.Sprintf(format, args...)
		return rep
	}

	if err := g.Validate(); err != nil {
		return fail(StageValidate, "generated graph invalid: %v", err)
	}

	d := cdfg.DefaultDelays(cs.PipelinedMul)
	a, lim, err := lifetime.MinFUAnalysis(g, d, cs.Steps)
	if err != nil {
		rep.Status = StatusInfeasible
		rep.Stage = StageCompile
		rep.Detail = err.Error()
		return rep
	}
	var inputs []string
	for i := range g.Nodes {
		if g.Nodes[i].Op == cdfg.Input {
			inputs = append(inputs, g.Nodes[i].Name)
		}
	}
	hw := datapath.NewHardware(lim, a.MinRegs+cs.ExtraRegs, inputs, true)

	base := core.SALSAOptions(seed)
	base.MaxTrials = cfg.MaxTrials
	base.MovesPerTrial = cfg.MovesPerTrial
	base.StallTrials = 2
	trad := base
	trad.EnableSegments = false
	trad.EnablePass = false
	trad.EnableSplit = false

	// The traditional model may be genuinely infeasible at tight
	// register budgets (whole-lifetime registers color a circular-arc
	// graph); that is one of the paper's points, not a finding.
	tradRes, _, tradErr := engine.Run(nil, a, hw, engine.Restarts(trad, cfg.Restarts), engine.Config{Workers: 1})

	jobs := engine.Restarts(base, cfg.Restarts)
	if tradErr == nil {
		warm := base
		warm.Initial = tradRes.Binding
		jobs = append(jobs, engine.Job{Label: "warm-start", Opts: warm})
	}
	salsaRes, _, err := engine.Run(nil, a, hw, jobs, engine.Config{Workers: 1})
	if err != nil {
		// The extended model is feasible whenever registers cover the
		// schedule's maximum overlap, which NewHardware guarantees; any
		// allocation failure is a finding.
		return fail(StageAllocate, "extended allocation failed: %v", err)
	}
	rep.SalsaCost = salsaRes.Cost.Total
	if tradErr == nil {
		rep.TradCost = tradRes.Cost.Total
	}

	// Optional fault injection on a clone, so the original stays
	// available for the cost and determinism stages.
	b := salsaRes.Binding
	if cfg.Inject != nil {
		b = b.Clone()
		cfg.Inject(b)
	}

	if err := b.Check(); err != nil {
		return fail(StageLegality, "extended binding fails legality recheck: %v", err)
	}
	if tradErr == nil {
		if err := tradRes.Binding.Check(); err != nil {
			return fail(StageLegality, "traditional binding fails legality recheck: %v", err)
		}
	}

	if _, cost, err := salsaRes.Binding.Eval(); err != nil {
		return fail(StageCostEval, "cost re-evaluation failed: %v", err)
	} else if cost.Total != salsaRes.Cost.Total {
		return fail(StageCostEval, "reported cost %d, re-evaluation says %d", salsaRes.Cost.Total, cost.Total)
	}

	if tradErr == nil && salsaRes.Cost.Total > tradRes.Cost.Total {
		return fail(StageDominance, "extended cost %d exceeds warm-start baseline %d",
			salsaRes.Cost.Total, tradRes.Cost.Total)
	}

	iters := 1
	if g.Cyclic {
		iters = cfg.SimIters
	}
	env := stimulus(g, seed)
	if _, err := dpsim.Run(b, env, iters); err != nil {
		return fail(StageDpsim, "%v", err)
	}
	if tradErr == nil {
		if _, err := dpsim.Run(tradRes.Binding, env, iters); err != nil {
			return fail(StageDpsimTrad, "%v", err)
		}
	}

	if err := vsim.VerifyBinding(b, zeroStateStimulus(g, seed), iters); err != nil {
		return fail(StageVsim, "%v", err)
	}

	if !cfg.DisableDeterminism {
		// Paranoid draws no randomness, so the re-run retraces the same
		// searches while checking every delta cost and the occupancy
		// against full rebuilds: a failed job is an incremental-
		// evaluation or move legality bug, a different winner a
		// determinism bug. The engine keeps a failed job's error in its
		// stats and still returns the other jobs' winner, so the stats
		// are checked job by job. A job may run past its canonical
		// pruning point by a timing-dependent margin; an error there is
		// a bug all the same.
		for i := range jobs {
			jobs[i].Opts.Paranoid = true
		}
		again, st, err := engine.Run(nil, a, hw, jobs, engine.Config{Workers: 2})
		for _, jr := range st.PerJob {
			if jr.Err != nil {
				return fail(StageParanoid, "paranoid re-run under 2 workers: job %d (%s): %v", jr.Job, jr.Label, jr.Err)
			}
		}
		if err != nil {
			return fail(StageParanoid, "paranoid re-run under 2 workers failed: %v", err)
		}
		if f1, f2 := Fingerprint(salsaRes.Binding), Fingerprint(again.Binding); f1 != f2 {
			return fail(StageDeterminism, "winning binding differs across worker counts:\n  w1: %s\n  w2: %s", f1, f2)
		}
	}

	rep.Status = StatusOK
	return rep
}

// stimulus builds a deterministic pseudo-random environment (inputs and
// initial state) for the dpsim stage, derived from the seed but
// decorrelated from the generator's stream.
func stimulus(g *cdfg.Graph, seed int64) cdfg.Env {
	state := uint64(seed)*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03
	env := cdfg.Env{}
	for i := range g.Nodes {
		switch g.Nodes[i].Op {
		case cdfg.Input, cdfg.State:
			state = state*6364136223846793005 + 1442695040888963407
			env[g.Nodes[i].Name] = int64((state>>33)%2001) - 1000
		}
	}
	return env
}

// zeroStateStimulus is stimulus with all loop state cleared, as the
// RTL-level verifier requires (hardware registers power up cleared).
func zeroStateStimulus(g *cdfg.Graph, seed int64) cdfg.Env {
	env := stimulus(g, seed)
	for i := range g.Nodes {
		if g.Nodes[i].Op == cdfg.State {
			env[g.Nodes[i].Name] = 0
		}
	}
	return env
}

// Fingerprint renders the complete allocation state of a binding as a
// canonical string, for byte-identity comparison across engine runs.
// Copies are visited per segment in value order and pass-throughs via
// the Transfers enumeration, with count cross-checks so a pass-through
// bound to no live transfer cannot hide.
func Fingerprint(b *binding.Binding) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fu=%v swap=%v seg=%v", b.OpFU, b.OpSwap, b.SegReg)
	sb.WriteString(" copies=[")
	nCopies := 0
	for v := range b.SegReg {
		for k := range b.SegReg[v] {
			for _, r := range b.HoldersAt(lifetime.ValueID(v), k)[1:] {
				fmt.Fprintf(&sb, "%d.%d:%d ", v, k, r)
				nCopies++
			}
		}
	}
	fmt.Fprintf(&sb, "] n=%d/%d pass=[", nCopies, b.NumCopies())
	nPass := 0
	for _, tk := range b.Transfers() {
		if f, ok := b.PassOf(tk); ok {
			fmt.Fprintf(&sb, "%d.%d.%d->%d ", tk.V, tk.K, tk.ToReg, f)
			nPass++
		}
	}
	fmt.Fprintf(&sb, "] n=%d/%d", nPass, b.NumPass())
	return sb.String()
}
