// Benchmark harness: one benchmark family per table and figure of the
// paper's evaluation, plus ablations and microbenchmarks of the
// allocator's inner loops. Each table bench allocates one (schedule,
// register budget) point per iteration and reports the merged
// equivalent 2-to-1 multiplexer counts of both binding models as custom
// metrics, so `go test -bench` regenerates the paper's numbers:
//
//	go test -bench 'Table2' -benchmem      # paper Table 2, all 14 points
//	go test -bench 'Table3' -benchmem      # paper Table 3
//	go test -bench 'Figure' -benchmem      # Figures 1–4
//	go test -bench 'Ablation' -benchmem    # design-choice knockouts
package salsa_test

import (
	"context"
	"runtime"
	"testing"

	"salsa"
	"salsa/internal/binding"
	"salsa/internal/cdfg"
	"salsa/internal/core"
	"salsa/internal/datapath"
	"salsa/internal/dpsim"
	"salsa/internal/engine"
	"salsa/internal/experiments"
	"salsa/internal/lifetime"
	"salsa/internal/match"
	"salsa/internal/place"
	"salsa/internal/rtl"
	"salsa/internal/vsim"
	"salsa/internal/workloads"
)

// benchCfg keeps table benches short while exercising the real search.
func benchCfg(seed int64) experiments.Config {
	cfg := experiments.Quick(seed)
	cfg.Verify = true
	return cfg
}

// benchPoint allocates one table point per iteration and reports both
// models' merged mux counts.
func benchPoint(b *testing.B, g func() *cdfg.Graph, steps int, pipelined bool, extraRegs int) {
	b.Helper()
	var trad, salsaMux float64
	for i := 0; i < b.N; i++ {
		rows, err := benchRunPoint(g(), steps, pipelined, extraRegs, benchCfg(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if rows.TradFeasible {
			trad = float64(rows.TradMerged)
		} else {
			trad = -1
		}
		salsaMux = float64(rows.SalsaMerged)
	}
	b.ReportMetric(salsaMux, "salsa-muxes")
	b.ReportMetric(trad, "trad-muxes")
}

// benchRunPoint mirrors experiments.runPoint through the public pieces.
func benchRunPoint(g *cdfg.Graph, steps int, pipelined bool, extraRegs int, cfg experiments.Config) (experiments.Row, error) {
	rows, err := experiments.Point(g, steps, pipelined, extraRegs, cfg)
	return rows, err
}

// --- Table 2: Elliptic Wave Filter ------------------------------------

func BenchmarkTable2_EWF17(b *testing.B)        { benchPoint(b, workloads.EWF, 17, false, 0) }
func BenchmarkTable2_EWF17_Regs1(b *testing.B)  { benchPoint(b, workloads.EWF, 17, false, 1) }
func BenchmarkTable2_EWF17_Regs2(b *testing.B)  { benchPoint(b, workloads.EWF, 17, false, 2) }
func BenchmarkTable2_EWF17P(b *testing.B)       { benchPoint(b, workloads.EWF, 17, true, 0) }
func BenchmarkTable2_EWF17P_Regs1(b *testing.B) { benchPoint(b, workloads.EWF, 17, true, 1) }
func BenchmarkTable2_EWF17P_Regs2(b *testing.B) { benchPoint(b, workloads.EWF, 17, true, 2) }
func BenchmarkTable2_EWF19(b *testing.B)        { benchPoint(b, workloads.EWF, 19, false, 0) }
func BenchmarkTable2_EWF19_Regs1(b *testing.B)  { benchPoint(b, workloads.EWF, 19, false, 1) }
func BenchmarkTable2_EWF19_Regs2(b *testing.B)  { benchPoint(b, workloads.EWF, 19, false, 2) }
func BenchmarkTable2_EWF19P(b *testing.B)       { benchPoint(b, workloads.EWF, 19, true, 0) }
func BenchmarkTable2_EWF19P_Regs1(b *testing.B) { benchPoint(b, workloads.EWF, 19, true, 1) }
func BenchmarkTable2_EWF19P_Regs2(b *testing.B) { benchPoint(b, workloads.EWF, 19, true, 2) }
func BenchmarkTable2_EWF21(b *testing.B)        { benchPoint(b, workloads.EWF, 21, false, 0) }
func BenchmarkTable2_EWF21_Regs1(b *testing.B)  { benchPoint(b, workloads.EWF, 21, false, 1) }

// --- Table 3: Discrete Cosine Transform -------------------------------

func BenchmarkTable3_DCT8(b *testing.B)  { benchPoint(b, workloads.DCT, 8, false, 1) }
func BenchmarkTable3_DCT10(b *testing.B) { benchPoint(b, workloads.DCT, 10, false, 1) }
func BenchmarkTable3_DCT12(b *testing.B) { benchPoint(b, workloads.DCT, 12, false, 1) }
func BenchmarkTable3_DCT14(b *testing.B) { benchPoint(b, workloads.DCT, 14, false, 1) }

// --- Figures -----------------------------------------------------------

func BenchmarkFigure12_Models(b *testing.B) {
	var mux float64
	for i := 0; i < b.N; i++ {
		row, err := experiments.Figure12(benchCfg(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		mux = float64(row.SalsaMerged)
	}
	b.ReportMetric(mux, "salsa-muxes")
}

func BenchmarkFigure3_PassThrough(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		d, err := experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		saved = float64(d.BeforeMux - d.AfterMux)
	}
	b.ReportMetric(saved, "muxes-saved")
}

func BenchmarkFigure4_ValueSplit(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		d, err := experiments.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		saved = float64(d.BeforeMux - d.AfterMux)
	}
	b.ReportMetric(saved, "muxes-saved")
}

// --- Ablations ----------------------------------------------------------

func benchAblation(b *testing.B, variant string) {
	b.Helper()
	var mux float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablation(benchCfg(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Name == variant {
				mux = float64(r.Merged)
			}
		}
	}
	b.ReportMetric(mux, "muxes")
}

func BenchmarkAblation_Full(b *testing.B)        { benchAblation(b, "full") }
func BenchmarkAblation_NoPass(b *testing.B)      { benchAblation(b, "no-passthrough") }
func BenchmarkAblation_NoSplit(b *testing.B)     { benchAblation(b, "no-split") }
func BenchmarkAblation_Traditional(b *testing.B) { benchAblation(b, "no-segments (traditional)") }
func BenchmarkAblation_Annealing(b *testing.B)   { benchAblation(b, "annealing acceptance") }

// --- Microbenchmarks of the allocator's inner loops ---------------------

func ewfBinding(b *testing.B) *binding.Binding {
	b.Helper()
	g := workloads.EWF()
	d := cdfg.DefaultDelays(false)
	a, lim, err := lifetime.MinFUAnalysis(g, d, 19)
	if err != nil {
		b.Fatal(err)
	}
	hw := datapath.NewHardware(lim, a.MinRegs+1, []string{"in"}, true)
	o := core.SALSAOptions(1)
	o.MovesPerTrial = 200
	o.MaxTrials = 3
	res, err := core.Allocate(a, hw, o)
	if err != nil {
		b.Fatal(err)
	}
	return res.Binding
}

// BenchmarkEvalEWF measures one full cost evaluation (the allocator's
// hot path: it runs once per attempted move).
func BenchmarkEvalEWF(b *testing.B) {
	bd := ewfBinding(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bd.Eval(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCloneEWF measures one deep copy: the engine's
// per-improvement record (the search itself copies into preallocated
// bindings).
func BenchmarkCloneEWF(b *testing.B) {
	bd := ewfBinding(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bd.Clone()
	}
}

// BenchmarkDeltaEvalEWF measures one transactional move round-trip
// (apply + delta cost + rollback) — the search's per-move cost.
func BenchmarkDeltaEvalEWF(b *testing.B) {
	bd := ewfBinding(b)
	tx, err := binding.NewTx(bd)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Begin()
		tx.FlipSwap(txFirstCommutative(b, bd))
		if _, err := tx.DeltaCost(); err != nil {
			b.Fatal(err)
		}
		tx.Rollback()
	}
}

func txFirstCommutative(b *testing.B, bd *binding.Binding) cdfg.NodeID {
	b.Helper()
	g := bd.A.Sched.G
	for i := range g.Nodes {
		if g.Nodes[i].Op.IsArith() && g.Nodes[i].Op.Commutative() {
			return cdfg.NodeID(i)
		}
	}
	b.Fatal("no commutative op in workload")
	return cdfg.NoNode
}

// BenchmarkMuxMergeEWF measures the merging post-pass.
func BenchmarkMuxMergeEWF(b *testing.B) {
	bd := ewfBinding(b)
	ic, _, err := bd.Eval()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ic.MergedMuxCost()
	}
}

// BenchmarkScheduleEWF measures the full schedule+lifetime pipeline.
func BenchmarkScheduleEWF(b *testing.B) {
	g := workloads.EWF()
	d := cdfg.DefaultDelays(false)
	for i := 0; i < b.N; i++ {
		if _, _, err := lifetime.MinFUAnalysis(g, d, 19); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateEWF measures one verified loop iteration of the
// bound datapath.
func BenchmarkSimulateEWF(b *testing.B) {
	bd := ewfBinding(b)
	env := cdfg.Env{"in": 7}
	for i := range bd.A.Sched.G.Nodes {
		if bd.A.Sched.G.Nodes[i].Op == cdfg.State {
			env[bd.A.Sched.G.Nodes[i].Name] = int64(i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dpsim.Run(bd, env, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocateTseng measures a complete small allocation,
// end to end.
func BenchmarkAllocateTseng(b *testing.B) {
	g := workloads.Tseng()
	des, err := salsa.Compile(g, salsa.Params{ExtraRegisters: 1})
	if err != nil {
		b.Fatal(err)
	}
	o := salsa.SALSAOptions(1)
	o.MovesPerTrial = 200
	o.MaxTrials = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := des.Allocate(o, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFDS_EWF19 measures one force-directed scheduling pass.
func BenchmarkFDS_EWF19(b *testing.B) {
	g := workloads.EWF()
	d := cdfg.DefaultDelays(false)
	for i := 0; i < b.N; i++ {
		if _, err := lifetime.RepairFDS(g, d, 19); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBusAllocationEWF measures the bus-style interconnect
// derivation from a finished allocation.
func BenchmarkBusAllocationEWF(b *testing.B) {
	bd := ewfBinding(b)
	ic, _, err := bd.Eval()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var buses int
	for i := 0; i < b.N; i++ {
		buses = ic.AllocateBuses().Buses
	}
	b.ReportMetric(float64(buses), "buses")
}

// BenchmarkVsimEWFIteration measures one full loop iteration of the
// emitted RTL through the Verilog-subset simulator.
func BenchmarkVsimEWFIteration(b *testing.B) {
	bd := ewfBinding(b)
	nl, err := rtl.Emit(bd, "dut")
	if err != nil {
		b.Fatal(err)
	}
	m, err := vsim.Parse(nl.Text)
	if err != nil {
		b.Fatal(err)
	}
	sim := vsim.NewSim(m)
	if err := sim.Reset(); err != nil {
		b.Fatal(err)
	}
	if err := sim.SetInput("in_in", 7); err != nil {
		b.Fatal(err)
	}
	T := bd.A.Sched.Steps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < T; t++ {
			if err := sim.Tick(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchScale allocates a synthetic DFG of the given size end to end,
// demonstrating scaling beyond the paper's 48-operator DCT.
func benchScale(b *testing.B, nOps int) {
	g := workloads.Synthetic(nOps, 7)
	d := cdfg.DefaultDelays(false)
	a, lim, err := lifetime.MinFUAnalysis(g, d, g.CriticalPath(d)+4)
	if err != nil {
		b.Fatal(err)
	}
	var inputs []string
	for i := range g.Nodes {
		if g.Nodes[i].Op == cdfg.Input {
			inputs = append(inputs, g.Nodes[i].Name)
		}
	}
	hw := datapath.NewHardware(lim, a.MinRegs+2, inputs, true)
	o := core.SALSAOptions(1)
	o.MovesPerTrial = 400
	o.MaxTrials = 5
	b.ResetTimer()
	var merged float64
	for i := 0; i < b.N; i++ {
		res, err := core.Allocate(a, hw, o)
		if err != nil {
			b.Fatal(err)
		}
		merged = float64(res.MergedMux)
	}
	b.ReportMetric(merged, "muxes")
	b.ReportMetric(float64(nOps), "ops")
}

func BenchmarkScale_Synth50(b *testing.B)  { benchScale(b, 50) }
func BenchmarkScale_Synth100(b *testing.B) { benchScale(b, 100) }
func BenchmarkScale_Synth200(b *testing.B) { benchScale(b, 200) }

// benchAllocateParallel runs an 8-restart portfolio through the engine
// with the given worker count; the allocation result is identical for
// every worker count, so the families differ only in wall clock.
func benchAllocateParallel(b *testing.B, g func() *cdfg.Graph, steps, workers int) {
	b.Helper()
	a, hw, jobs := allocateParallelSetup(b, g, steps)
	b.ResetTimer()
	var merged float64
	for i := 0; i < b.N; i++ {
		res, _, err := engine.Run(context.Background(), a, hw, jobs, engine.Config{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		merged = float64(res.MergedMux)
	}
	b.ReportMetric(merged, "muxes")
	b.ReportMetric(float64(workers), "workers")
}

// allocateParallelSetup builds benchAllocateParallel's problem: the
// graph at the given schedule length on its minimum FU set with one
// spare register, and an 8-restart portfolio of short SALSA searches.
func allocateParallelSetup(tb testing.TB, g func() *cdfg.Graph, steps int) (*lifetime.Analysis, *datapath.Hardware, []engine.Job) {
	tb.Helper()
	graph := g()
	d := cdfg.DefaultDelays(false)
	a, lim, err := lifetime.MinFUAnalysis(graph, d, steps)
	if err != nil {
		tb.Fatal(err)
	}
	var inputs []string
	for i := range graph.Nodes {
		if graph.Nodes[i].Op == cdfg.Input {
			inputs = append(inputs, graph.Nodes[i].Name)
		}
	}
	hw := datapath.NewHardware(lim, a.MinRegs+1, inputs, true)
	o := core.SALSAOptions(1)
	o.MovesPerTrial = 600
	o.MaxTrials = 8
	return a, hw, engine.Restarts(o, 8)
}

func BenchmarkAllocateParallel_EWF_W1(b *testing.B) {
	benchAllocateParallel(b, workloads.EWF, 19, 1)
}
func BenchmarkAllocateParallel_EWF_WNumCPU(b *testing.B) {
	benchAllocateParallel(b, workloads.EWF, 19, runtime.NumCPU())
}
func BenchmarkAllocateParallel_DCT_W1(b *testing.B) {
	benchAllocateParallel(b, workloads.DCT, 12, 1)
}
func BenchmarkAllocateParallel_DCT_WNumCPU(b *testing.B) {
	benchAllocateParallel(b, workloads.DCT, 12, runtime.NumCPU())
}

// BenchmarkHungarian measures the matching core on a 40x40 instance.
func BenchmarkHungarian40(b *testing.B) {
	n := 40
	w := make([][]float64, n)
	x := int64(12345)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			x = x*6364136223846793005 + 1442695040888963407
			w[i][j] = float64((x >> 33) % 100)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match.Assign(w)
	}
}

// BenchmarkPlaceEWF measures the linear placement of a finished EWF
// allocation.
func BenchmarkPlaceEWF(b *testing.B) {
	bd := ewfBinding(b)
	ic, _, err := bd.Eval()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var wl int
	for i := 0; i < b.N; i++ {
		wl = place.Linear(ic).WireLength
	}
	b.ReportMetric(float64(wl), "wirelength")
}

// BenchmarkMatchingAllocateEWF measures the constructive matching
// allocator end to end.
func BenchmarkMatchingAllocateEWF(b *testing.B) {
	g := workloads.EWF()
	d := cdfg.DefaultDelays(false)
	a, lim, err := lifetime.MinFUAnalysis(g, d, 19)
	if err != nil {
		b.Fatal(err)
	}
	hw := datapath.NewHardware(lim, a.MinRegs+2, []string{"in"}, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MatchingAllocate(a, hw, binding.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
