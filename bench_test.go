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
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"salsa"
	"salsa/internal/binding"
	"salsa/internal/cdfg"
	"salsa/internal/cluster"
	"salsa/internal/core"
	"salsa/internal/dpsim"
	"salsa/internal/experiments"
	"salsa/internal/journal"
	"salsa/internal/lifetime"
	"salsa/internal/match"
	"salsa/internal/place"
	"salsa/internal/rtl"
	"salsa/internal/service"
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
	des, err := salsa.Compile(workloads.EWF(), salsa.Params{Steps: 19, ExtraRegisters: 1})
	if err != nil {
		b.Fatal(err)
	}
	o := core.SALSAOptions(1)
	o.MovesPerTrial = 200
	o.MaxTrials = 3
	res, err := core.Allocate(des.Analysis, des.Hardware, o)
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
	des, err := salsa.Compile(g, salsa.Params{Steps: g.CriticalPath(cdfg.DefaultDelays(false)) + 4, ExtraRegisters: 2})
	if err != nil {
		b.Fatal(err)
	}
	o := core.SALSAOptions(1)
	o.MovesPerTrial = 400
	o.MaxTrials = 5
	b.ResetTimer()
	var merged float64
	for i := 0; i < b.N; i++ {
		res, err := core.Allocate(des.Analysis, des.Hardware, o)
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
	des, jobs := allocateParallelSetup(b, g, steps)
	b.ResetTimer()
	var merged float64
	for i := 0; i < b.N; i++ {
		res, _, err := des.AllocatePortfolio(context.Background(), jobs, salsa.EngineConfig{Workers: workers})
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
func allocateParallelSetup(tb testing.TB, g func() *cdfg.Graph, steps int) (*salsa.Design, []salsa.Job) {
	tb.Helper()
	des, err := salsa.Compile(g(), salsa.Params{Steps: steps, ExtraRegisters: 1})
	if err != nil {
		tb.Fatal(err)
	}
	o := salsa.SALSAOptions(1)
	o.MovesPerTrial = 600
	o.MaxTrials = 8
	return des, salsa.Restarts(o, 8)
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

// BenchmarkSearchCorpus_W1 runs the search a cold request pays for: one
// op allocates every testdata/ corpus graph at seed 1000 with 3
// restarts on one worker through salsa.Execute, so compile, search and
// polish of each graph the service serves are timed together.
func BenchmarkSearchCorpus_W1(b *testing.B) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(files) == 0 {
		b.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	graphs := make([]*cdfg.Graph, len(files))
	for i, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			b.Fatal(err)
		}
		if graphs[i], err = cdfg.ParseJSON(raw); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var merged float64
	for i := 0; i < b.N; i++ {
		merged = 0
		for _, g := range graphs {
			req := salsa.Request{Graph: g, Seed: 1000, Restarts: 3, Engine: salsa.EngineConfig{Workers: 1}}
			_, res, _, err := salsa.Execute(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			merged += float64(res.MergedMux)
		}
	}
	b.ReportMetric(merged, "muxes")
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
	des, err := salsa.Compile(workloads.EWF(), salsa.Params{Steps: 19, ExtraRegisters: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MatchingAllocate(des.Analysis, des.Hardware); err != nil {
			b.Fatal(err)
		}
	}
}

// hotSetBodies renders the hot set of salsabench's warm-repeat: one
// request per testdata corpus graph × search seeds 1–2.
func hotSetBodies(b *testing.B) [][]byte {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(files) == 0 {
		b.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	var bodies [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			b.Fatal(err)
		}
		for _, seed := range []int64{1, 2} {
			body, err := json.Marshal(service.AllocateRequest{Graph: raw, Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	return bodies
}

// serveHTTP sends one request through h and returns the recorded
// response.
func serveHTTP(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// BenchmarkServeCachedAllocate measures salsad's cache-hit path: one
// POST /allocate through the service handler, cycling over the
// warm-repeat hot set, every request a byte-identical repeat of a
// prewarmed one.
func BenchmarkServeCachedAllocate(b *testing.B) {
	bodies := hotSetBodies(b)
	h := service.New(service.Config{}).Handler()
	for _, body := range bodies {
		if rec := serveHTTP(h, http.MethodPost, "/allocate", body); rec.Code != http.StatusOK {
			b.Fatalf("prewarm: status %d: %s", rec.Code, rec.Body)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serveHTTP(h, http.MethodPost, "/allocate", bodies[i%len(bodies)]); rec.Header().Get("X-Salsa-Cache") != "hit" {
			b.Fatalf("request %d: status %d cache %q, want a hit", i, rec.Code, rec.Header().Get("X-Salsa-Cache"))
		}
	}
}

// BenchmarkServeCachedJob measures a cache-served async job on a
// journaled salsad: one POST /jobs plus one GET /jobs/{id} through the
// service handler, cycling over the warm-repeat hot set, with the
// journal in a temporary directory. Every submission's acceptance and
// result are fsynced before its 202, so the op includes that sync.
func BenchmarkServeCachedJob(b *testing.B) {
	bodies := hotSetBodies(b)
	jrn, err := journal.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer jrn.Close()
	h := service.New(service.Config{Journal: jrn}).Handler()
	for _, body := range bodies {
		if rec := serveHTTP(h, http.MethodPost, "/allocate", body); rec.Code != http.StatusOK {
			b.Fatalf("prewarm: status %d: %s", rec.Code, rec.Body)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := serveHTTP(h, http.MethodPost, "/jobs", bodies[i%len(bodies)])
		var sub struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); rec.Code != http.StatusAccepted || err != nil {
			b.Fatalf("submit %d: status %d: %s", i, rec.Code, rec.Body)
		}
		var st service.JobStatus
		rec = serveHTTP(h, http.MethodGet, "/jobs/"+sub.ID, nil)
		if err := json.Unmarshal(rec.Body.Bytes(), &st); rec.Code != http.StatusOK || err != nil || st.State != "done" {
			b.Fatalf("poll %s: status %d: %s", sub.ID, rec.Code, rec.Body)
		}
	}
}

// handlerDoer serves every exchange a router proxies in process, with
// one salsad's handler.
type handlerDoer struct{ h http.Handler }

func (d handlerDoer) Do(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// BenchmarkRouterProxiedAllocate measures the router's proxied path: one
// POST /allocate through a cluster.Router with an 8-entry cache in front
// of one in-process salsad, cycling over the warm-repeat hot set. Its 16
// keys overflow the router cache, so every request is proxied and the
// backend's cache answers it. The router's body table is sized to the
// fleet's caches, so it knows every body and the router decodes none;
// digest-hits/op reports the share it knew.
func BenchmarkRouterProxiedAllocate(b *testing.B) {
	bodies := hotSetBodies(b)
	r, err := cluster.New(cluster.Config{
		Backends:     []string{"http://salsad"},
		Doer:         handlerDoer{service.New(service.Config{}).Handler()},
		CacheEntries: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := r.Handler()
	for _, body := range bodies {
		if rec := serveHTTP(h, http.MethodPost, "/allocate", body); rec.Code != http.StatusOK {
			b.Fatalf("prewarm: status %d: %s", rec.Code, rec.Body)
		}
	}
	hits := r.MetricsSnapshot()["body_digest_hits_total"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := serveHTTP(h, http.MethodPost, "/allocate", bodies[i%len(bodies)])
		if rec.Header().Get("X-Salsa-Cache") != "hit" || rec.Header().Get("X-Salsa-Shard") == "router" {
			b.Fatalf("request %d: status %d cache %q shard %q, want a proxied backend hit",
				i, rec.Code, rec.Header().Get("X-Salsa-Cache"), rec.Header().Get("X-Salsa-Shard"))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(r.MetricsSnapshot()["body_digest_hits_total"]-hits)/float64(b.N), "digest-hits/op")
}

// BenchmarkServeColdAllocate measures salsad's search path under
// concurrent load: two clients POST /allocate through the service
// handler with the result cache and body table off, so every request
// runs the engine. One op is the testdata corpus at one search seed,
// 8 requests shared between the two clients.
func BenchmarkServeColdAllocate(b *testing.B) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(files) == 0 {
		b.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	bodies := make([][]byte, len(files))
	for i, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			b.Fatal(err)
		}
		if bodies[i], err = json.Marshal(service.AllocateRequest{Graph: raw, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	h := service.New(service.Config{CacheEntries: -1}).Handler()
	const clients = 2
	errs := make([]error, clients)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := next.Add(1) - 1; k < int64(len(bodies)); k = next.Add(1) - 1 {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/allocate", bytes.NewReader(bodies[k])))
					if rec.Code != http.StatusOK || rec.Header().Get("X-Salsa-Cache") != "miss" {
						errs[c] = fmt.Errorf("%s: status %d cache %q: %s", files[k], rec.Code, rec.Header().Get("X-Salsa-Cache"), rec.Body)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
	}
}
