// Package experiments regenerates the paper's evaluation: Table 2
// (elliptic wave filter under five schedules and varying register
// budgets), Table 3 (discrete cosine transform under four schedules),
// the Figure 3/4 mechanism demonstrations, and ablations of each
// extension the binding model adds. Every SALSA allocation is
// cross-checked by cycle-accurate simulation before it is reported.
package experiments

import (
	"context"
	"fmt"

	"salsa"
	"salsa/internal/binding"
	"salsa/internal/cdfg"
	"salsa/internal/core"
	"salsa/internal/dpsim"
	"salsa/internal/sched"
	"salsa/internal/vsim"
	"salsa/internal/workloads"
)

// Row is one table line: a (schedule, register budget) point with the
// traditional-model baseline and the extended-model result.
type Row struct {
	ID        string
	Workload  string
	Steps     int
	Pipelined bool
	ALUs      int
	Muls      int
	MinRegs   int
	Regs      int // budget given to the allocators

	// Traditional binding model (the "best reported" stand-in).
	TradFeasible bool
	TradMux      int // equivalent 2-1 muxes before merging
	TradMerged   int // after the merging post-pass (the paper's metric)
	TradRegsUsed int

	// Extended (SALSA) binding model.
	SalsaMux      int
	SalsaMerged   int
	SalsaRegsUsed int
	Passes        int // pass-through bindings in the final allocation
	Copies        int // value copy segments in the final allocation
	Segmented     int // values whose segments span >1 register

	// Bus-style rendering of the extended-model interconnect (the
	// paper's §7 direction): bus count and sink-side mux cost.
	SalsaBuses  int
	SalsaBusMux int

	// Verified is set when the SALSA allocation passed the
	// cycle-accurate simulation cross-check.
	Verified bool
}

// Config tunes an experiment run.
type Config struct {
	Seed     int64
	Restarts int
	// MovesPerTrial / MaxTrials override the allocator defaults when >0
	// (used to keep bench runs short).
	MovesPerTrial int
	MaxTrials     int
	// Verify enables the simulation cross-check (on by default in the
	// full harness; benches may disable it).
	Verify bool
	// Workers bounds the portfolio engine's worker pool (0 = GOMAXPROCS).
	// Results are identical for any value.
	Workers int
}

// Quick returns a configuration sized for tests and benches.
func Quick(seed int64) Config {
	return Config{Seed: seed, Restarts: 1, MovesPerTrial: 400, MaxTrials: 6, Verify: true}
}

// Full returns the configuration used to regenerate the tables in
// EXPERIMENTS.md.
func Full(seed int64) Config {
	return Config{Seed: seed, Restarts: 3, MovesPerTrial: 2500, MaxTrials: 40, Verify: true}
}

// budget applies the configured search effort to opts.
func (c Config) budget(o core.Options) core.Options {
	if c.MovesPerTrial > 0 {
		o.MovesPerTrial = c.MovesPerTrial
	}
	if c.MaxTrials > 0 {
		o.MaxTrials = c.MaxTrials
	}
	return o
}

func (c Config) salsaOpts() core.Options { return c.budget(core.SALSAOptions(c.Seed)) }

func (c Config) tradOpts() core.Options { return c.budget(core.TraditionalOptions(c.Seed)) }

// allocateBest runs the restart portfolio on the parallel engine; the
// winner is deterministic regardless of Workers.
func (c Config) allocateBest(des *salsa.Design, opts core.Options) (*core.Result, error) {
	res, _, err := des.AllocatePortfolio(context.Background(),
		salsa.Restarts(opts, c.Restarts), salsa.EngineConfig{Workers: c.Workers})
	return res, err
}

// Point allocates one (graph, steps, pipelined, register-budget) point
// under both binding models and returns the comparison row. It is the
// unit the tables and the root benchmark harness are built from.
func Point(g *cdfg.Graph, steps int, pipelined bool, extraRegs int, cfg Config) (Row, error) {
	return runPoint(fmt.Sprintf("%s@%d", g.Name, steps), g,
		salsa.Params{Steps: steps, PipelinedMultipliers: pipelined, ExtraRegisters: extraRegs}, cfg)
}

// runPoint allocates one compiled point under both models.
func runPoint(id string, g *cdfg.Graph, p salsa.Params, cfg Config) (Row, error) {
	des, err := salsa.Compile(g, p)
	if err != nil {
		return Row{}, fmt.Errorf("%s: %w", id, err)
	}
	row := Row{
		ID: id, Workload: g.Name, Steps: des.Steps(), Pipelined: p.PipelinedMultipliers,
		ALUs: des.Limits[sched.ClassALU], Muls: des.Limits[sched.ClassMul],
		MinRegs: des.MinRegisters(), Regs: des.MinRegisters() + p.ExtraRegisters,
	}

	// Traditional baseline.
	tRes, tErr := cfg.allocateBest(des, cfg.tradOpts())
	if tErr == nil {
		row.TradFeasible = true
		row.TradMux = tRes.Cost.MuxCost
		row.TradMerged = tRes.MergedMux
		row.TradRegsUsed = tRes.Cost.RegsUsed
	}

	// Extended model: cold restarts plus, when the baseline exists, a
	// warm start from it (the extended space contains the traditional
	// one, so the warm run can only match or improve it).
	sOpts := cfg.salsaOpts()
	sRes, err := cfg.allocateBest(des, sOpts)
	if err != nil {
		return Row{}, fmt.Errorf("%s: %w", id, err)
	}
	// Candidates are ranked by the metric the paper's tables report —
	// equivalent 2-1 multiplexers after merging — with the raw weighted
	// cost as the tie-break (the optimizer itself sees only the raw
	// point-to-point cost; merging is a post-pass).
	better := func(x, y *core.Result) bool {
		return x.MergedMux < y.MergedMux ||
			(x.MergedMux == y.MergedMux && x.Cost.Total < y.Cost.Total)
	}
	if tErr == nil {
		warm := sOpts
		warm.Initial = tRes.Binding
		wRes, err := core.Allocate(des.Analysis, des.Hardware, warm)
		if err == nil && better(wRes, sRes) {
			sRes = wRes
		}
		// The traditional allocation is itself a legal point of the
		// extended model's space; never report a worse one.
		if better(tRes, sRes) {
			sRes = tRes
		}
	}
	row.SalsaMux = sRes.Cost.MuxCost
	row.SalsaMerged = sRes.MergedMux
	row.SalsaRegsUsed = sRes.Cost.RegsUsed
	row.Passes = sRes.Binding.NumPass()
	row.Copies = sRes.Binding.NumCopies()
	row.Segmented = countSegmented(sRes.Binding)
	ba := sRes.IC.AllocateBuses()
	row.SalsaBuses = ba.Buses
	row.SalsaBusMux = ba.MuxCost

	if cfg.Verify {
		if err := verify(sRes.Binding, cfg.Seed); err != nil {
			return row, fmt.Errorf("%s: verification failed: %w", id, err)
		}
		row.Verified = true
	}
	return row, nil
}

func countSegmented(b *binding.Binding) int {
	n := 0
	for v := range b.SegReg {
		for k := 1; k < len(b.SegReg[v]); k++ {
			if b.SegReg[v][k] != b.SegReg[v][0] {
				n++
				break
			}
		}
	}
	return n
}

// verify checks the allocation at two levels: the binding simulates
// cycle-accurately against the reference semantics on the shared
// seeded stimulus (dpsim), and the emitted RTL netlist simulates to the
// same outputs through the Verilog-subset simulator (vsim), loops
// starting from cleared registers.
func verify(b *binding.Binding, seed int64) error {
	g := b.A.Sched.G
	iters := 1
	if g.Cyclic {
		iters = 3
	}
	if _, err := dpsim.Run(b, dpsim.Stimulus(g, seed), iters); err != nil {
		return err
	}
	return vsim.VerifyBinding(b, dpsim.ZeroStateStimulus(g, seed), iters)
}

// Table2 regenerates the paper's EWF experiment: schedules of 17 and 19
// steps with non-pipelined and pipelined multipliers plus 21 steps
// non-pipelined; for each schedule, the minimum register count and one
// or two relaxed budgets trading storage for interconnect — fourteen
// rows, as in the paper.
func Table2(cfg Config) ([]Row, error) {
	type point struct {
		steps     int
		pipelined bool
		extras    []int
	}
	points := []point{
		{17, false, []int{0, 1, 2}},
		{17, true, []int{0, 1, 2}},
		{19, false, []int{0, 1, 2}},
		{19, true, []int{0, 1, 2}},
		{21, false, []int{0, 1}},
	}
	var rows []Row
	n := 1
	for _, p := range points {
		for _, extra := range p.extras {
			g := workloads.EWF()
			id := fmt.Sprintf("T2.%d", n)
			n++
			row, err := runPoint(id, g, salsa.Params{Steps: p.steps, PipelinedMultipliers: p.pipelined, ExtraRegisters: extra}, cfg)
			if err != nil {
				return rows, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Table3 regenerates the DCT experiment: four schedules of increasing
// length over the 48-operator CDFG of Figure 5, with minimum registers.
func Table3(cfg Config) ([]Row, error) {
	steps := []int{8, 10, 12, 14}
	var rows []Row
	for i, s := range steps {
		g := workloads.DCT()
		id := fmt.Sprintf("T3.%d", i+1)
		row, err := runPoint(id, g, salsa.Params{Steps: s, ExtraRegisters: 1}, cfg)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationRow reports one feature-knockout configuration.
type AblationRow struct {
	Name      string
	Mux       int
	Merged    int
	RegsUsed  int
	Total     int
	Passes    int
	Copies    int
	Segmented int
}

// Ablation runs the EWF 19-step point under feature knockouts: the full
// extended model, pass-throughs disabled, value copies disabled,
// segmentation disabled (≡ traditional model), and the
// simulated-annealing acceptance rule the paper found inferior.
func Ablation(cfg Config) ([]AblationRow, error) {
	des, err := salsa.Compile(workloads.EWF(), salsa.Params{Steps: 19, ExtraRegisters: 1})
	if err != nil {
		return nil, err
	}

	// All extended variants warm-start from one shared traditional
	// baseline so the table isolates what each binding-model extension
	// contributes, independent of cold-start search noise.
	base, err := cfg.allocateBest(des, cfg.tradOpts())
	if err != nil {
		return nil, fmt.Errorf("traditional baseline: %w", err)
	}

	variants := []struct {
		name string
		mod  func(*core.Options)
	}{
		{"full", func(o *core.Options) {}},
		{"no-passthrough", func(o *core.Options) { o.EnablePass = false }},
		{"no-split", func(o *core.Options) { o.EnableSplit = false }},
		{"no-segments (traditional)", func(o *core.Options) { *o = cfg.tradOpts() }},
		{"annealing acceptance", func(o *core.Options) { o.Anneal = true }},
	}
	var rows []AblationRow
	for _, v := range variants {
		o := cfg.salsaOpts()
		v.mod(&o)
		warm := o
		warm.Initial = base.Binding
		res, err := core.Allocate(des.Analysis, des.Hardware, warm)
		if err != nil {
			return rows, fmt.Errorf("%s: %w", v.name, err)
		}
		if cold, err2 := cfg.allocateBest(des, o); err2 == nil && cold.Cost.Total < res.Cost.Total {
			res = cold
		}
		if cfg.Verify {
			if err := verify(res.Binding, cfg.Seed); err != nil {
				return rows, fmt.Errorf("%s: verification failed: %w", v.name, err)
			}
		}
		rows = append(rows, AblationRow{
			Name:      v.name,
			Mux:       res.Cost.MuxCost,
			Merged:    res.MergedMux,
			RegsUsed:  res.Cost.RegsUsed,
			Total:     res.Cost.Total,
			Passes:    res.Binding.NumPass(),
			Copies:    res.Binding.NumCopies(),
			Segmented: countSegmented(res.Binding),
		})
	}
	return rows, nil
}

// SchedRow compares schedulers feeding the same allocator.
type SchedRow struct {
	Workload  string
	Steps     int
	Scheduler string
	ALUs      int
	Muls      int
	MinRegs   int
	Merged    int // extended-model merged mux count on that schedule
}

// SchedulerStudy runs the list scheduler and force-directed scheduling
// over representative points and allocates each schedule under the
// extended model, quantifying how much the schedule source matters to
// allocation quality (the paper treats the scheduler as a given; this
// study backs that up).
func SchedulerStudy(cfg Config) ([]SchedRow, error) {
	type point struct {
		name  string
		build func() *cdfg.Graph
		steps int
	}
	points := []point{
		{"ewf", workloads.EWF, 19},
		{"ewf", workloads.EWF, 21},
		{"dct", workloads.DCT, 10},
		{"dct", workloads.DCT, 14},
		{"diffeq", workloads.Diffeq, 8},
	}
	var rows []SchedRow
	for _, p := range points {
		for _, which := range []string{"list", "fds"} {
			des, err := salsa.Compile(p.build(), salsa.Params{Steps: p.steps, ExtraRegisters: 1, ForceDirected: which == "fds"})
			if err != nil {
				return rows, fmt.Errorf("%s@%d/%s: %w", p.name, p.steps, which, err)
			}
			res, err := cfg.allocateBest(des, cfg.salsaOpts())
			if err != nil {
				return rows, fmt.Errorf("%s@%d/%s: %w", p.name, p.steps, which, err)
			}
			if cfg.Verify {
				if err := verify(res.Binding, cfg.Seed); err != nil {
					return rows, fmt.Errorf("%s@%d/%s: verification failed: %w", p.name, p.steps, which, err)
				}
			}
			rows = append(rows, SchedRow{
				Workload: p.name, Steps: p.steps, Scheduler: which,
				ALUs: des.Limits[sched.ClassALU], Muls: des.Limits[sched.ClassMul],
				MinRegs: des.MinRegisters(), Merged: res.MergedMux,
			})
		}
	}
	return rows, nil
}

// BaselineRow compares allocation approaches on one benchmark point.
type BaselineRow struct {
	Workload string
	Steps    int
	Matching int // constructive bipartite-matching baseline (merged muxes)
	TradIter int // iterative improvement, traditional model
	Salsa    int // iterative improvement, extended model
}

// BaselineStudy positions the paper's search-based allocator against
// the constructive matching approach of its reference [13] and the
// traditional-model iterative search, all on identical schedules and
// budgets.
func BaselineStudy(cfg Config) ([]BaselineRow, error) {
	points := []struct {
		name  string
		build func() *cdfg.Graph
		steps int
	}{
		{"diffeq", workloads.Diffeq, 9},
		{"arf", workloads.ARF, 12},
		{"fir16", workloads.FIR16, 8},
		{"ewf", workloads.EWF, 19},
		{"dct", workloads.DCT, 12},
	}
	var rows []BaselineRow
	for _, p := range points {
		des, err := salsa.Compile(p.build(), salsa.Params{Steps: p.steps, ExtraRegisters: 2})
		if err != nil {
			return rows, err
		}
		a, hw := des.Analysis, des.Hardware

		row := BaselineRow{Workload: p.name, Steps: p.steps}
		mRes, err := core.MatchingAllocate(a, hw)
		if err != nil {
			return rows, fmt.Errorf("%s: matching: %w", p.name, err)
		}
		row.Matching = mRes.MergedMux

		tOpts := cfg.tradOpts()
		tOpts.Initial = mRes.Binding // search from the matching start
		tRes, err := core.Allocate(a, hw, tOpts)
		if err != nil {
			return rows, fmt.Errorf("%s: traditional: %w", p.name, err)
		}
		row.TradIter = tRes.MergedMux

		sOpts := cfg.salsaOpts()
		warm := sOpts
		warm.Initial = tRes.Binding
		sRes, err := core.Allocate(a, hw, warm)
		if err != nil {
			return rows, fmt.Errorf("%s: salsa: %w", p.name, err)
		}
		if cold, err2 := cfg.allocateBest(des, sOpts); err2 == nil && cold.MergedMux < sRes.MergedMux {
			sRes = cold
		}
		row.Salsa = sRes.MergedMux
		if cfg.Verify {
			if err := verify(sRes.Binding, cfg.Seed); err != nil {
				return rows, fmt.Errorf("%s: verification failed: %w", p.name, err)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
