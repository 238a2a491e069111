package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"salsa/internal/binding"
	"salsa/internal/cdfg"
	"salsa/internal/core"
	"salsa/internal/datapath"
	"salsa/internal/engine"
	"salsa/internal/lifetime"
	"salsa/internal/randgraph"
	"salsa/internal/workloads"
)

// setup schedules a benchmark at cp+extraSteps and builds hardware
// with minRegs+extraRegs registers (mirrors internal/core's test
// helper).
func setup(t testing.TB, g *cdfg.Graph, extraSteps, extraRegs int) (*lifetime.Analysis, *datapath.Hardware) {
	t.Helper()
	d := cdfg.DefaultDelays(false)
	a, lim, err := lifetime.MinFUAnalysis(g, d, g.CriticalPath(d)+extraSteps)
	if err != nil {
		t.Fatal(err)
	}
	var inputs []string
	for i := range g.Nodes {
		if g.Nodes[i].Op == cdfg.Input {
			inputs = append(inputs, g.Nodes[i].Name)
		}
	}
	hw := datapath.NewHardware(lim, a.MinRegs+extraRegs, inputs, true)
	return a, hw
}

func quickOpts(seed int64) core.Options {
	o := core.SALSAOptions(seed)
	o.MovesPerTrial = 250
	o.MaxTrials = 8
	return o
}

// fingerprint renders the complete allocation state so byte-identity
// across runs can be asserted.
func fingerprint(b *binding.Binding) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fu=%v swap=%v seg=%v", b.OpFU, b.OpSwap, b.SegReg)
	var copies []string
	for v := range b.SegReg {
		for k := range b.SegReg[v] {
			if cs := b.CopiesAt(lifetime.ValueID(v), k); len(cs) > 0 {
				copies = append(copies, fmt.Sprintf("%d.%d:%v", v, k, cs))
			}
		}
	}
	var passes []string
	for _, pb := range b.Passes() {
		passes = append(passes, fmt.Sprintf("%d.%d.%d->%d", pb.V, pb.K, pb.ToReg, pb.FU))
	}
	fmt.Fprintf(&sb, " copies=%v pass=%v", copies, passes)
	return sb.String()
}

// variant is a restart portfolio whose labels carry a variant name,
// "name/seed=k"; appending variants in order builds a mixed portfolio.
func variant(name string, opts core.Options, restarts int) []engine.Job {
	jobs := engine.Restarts(opts, restarts)
	for i := range jobs {
		jobs[i].Label = name + "/" + jobs[i].Label
	}
	return jobs
}

// traditionalOpts is quickOpts under the traditional binding model.
func traditionalOpts(seed int64) core.Options {
	o := quickOpts(seed)
	o.EnableSegments = false
	o.EnablePass = false
	o.EnableSplit = false
	return o
}

// mixedPortfolio builds the documented portfolio shape: SALSA cold
// restarts, the traditional model, and the annealing ablation.
func mixedPortfolio(seed int64, restarts int) []engine.Job {
	ao := quickOpts(seed)
	ao.Anneal = true
	jobs := variant("salsa", quickOpts(seed), restarts)
	jobs = append(jobs, variant("traditional", traditionalOpts(seed), restarts)...)
	return append(jobs, variant("anneal", ao, restarts)...)
}

// TestDeterministicAcrossWorkers is the engine's central contract: the
// winner and every canonical per-job result are byte-identical for any
// worker count.
func TestDeterministicAcrossWorkers(t *testing.T) {
	// Two portfolio shapes: a mixed variant portfolio on FIR8, and a
	// wide restart portfolio on Tseng where incumbent pruning actually
	// fires (so the canonical-truncation path is compared against the
	// live-pruning path, not just natural termination).
	fa, fhw := setup(t, workloads.FIR8(), 2, 2)
	ta, thw := setup(t, workloads.Tseng(), 2, 1)
	wide := quickOpts(3)
	wide.MovesPerTrial = 120
	wide.MaxTrials = 6
	cases := []struct {
		name string
		a    *lifetime.Analysis
		hw   *datapath.Hardware
		jobs []engine.Job
	}{
		{"mixed-fir8", fa, fhw, mixedPortfolio(7, 2)},
		{"wide-tseng", ta, thw, engine.Restarts(wide, 16)},
	}
	for _, tc := range cases {
		type snap struct {
			fp     string
			cost   binding.Cost
			merged int
			pruned int
			stats  []engine.JobResult
		}
		var base *snap
		for _, workers := range []int{1, 2, 8} {
			before := engine.Metrics().Snapshot()
			res, st, err := engine.Run(context.Background(), tc.a, tc.hw, tc.jobs, engine.Config{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			assertCounterDeltas(t, tc.name, workers, before, st)
			if err := res.Binding.Check(); err != nil {
				t.Fatalf("%s workers=%d: winner illegal: %v", tc.name, workers, err)
			}
			s := &snap{fp: fingerprint(res.Binding), cost: res.Cost, merged: res.MergedMux, pruned: st.Pruned, stats: st.PerJob}
			if base == nil {
				base = s
				t.Logf("%s winner: job %d, cost %d, %d merged muxes, %d/%d jobs pruned",
					tc.name, st.BestJob, res.Cost.Total, res.MergedMux, st.Pruned, st.Jobs)
				continue
			}
			if s.cost != base.cost || s.merged != base.merged {
				t.Errorf("%s workers=%d: cost %v/%d differs from workers=1 %v/%d",
					tc.name, workers, s.cost, s.merged, base.cost, base.merged)
			}
			if s.fp != base.fp {
				t.Errorf("%s workers=%d: winner binding differs from workers=1", tc.name, workers)
			}
			if s.pruned != base.pruned {
				t.Errorf("%s workers=%d: pruned count %d differs from workers=1 %d",
					tc.name, workers, s.pruned, base.pruned)
			}
			for i := range s.stats {
				got, want := s.stats[i], base.stats[i]
				got.Duration, want.Duration = 0, 0
				if got != want {
					t.Errorf("%s workers=%d: job %d canonical result differs:\n got %+v\nwant %+v",
						tc.name, workers, i, got, want)
				}
			}
		}
	}
}

// assertCounterDeltas checks the expvar engine counters against the
// deterministic Stats of the run just performed: the per-run deltas
// must equal the canonical effort, for any worker count. Engine tests
// run sequentially within this package, so the deltas are exact.
func assertCounterDeltas(t *testing.T, name string, workers int, before map[string]int64, st *engine.Stats) {
	t.Helper()
	after := engine.Metrics().Snapshot()
	delta := func(counter string) int64 { return after[counter] - before[counter] }
	exact := map[string]int64{
		"salsa_engine_runs_total":           1,
		"salsa_engine_jobs_total":           int64(st.Jobs),
		"salsa_engine_trials_total":         int64(st.Trials),
		"salsa_engine_moves_tried_total":    int64(st.MovesTried),
		"salsa_engine_moves_accepted_total": int64(st.MovesAccepted),
		"salsa_engine_jobs_pruned_total":    int64(st.Pruned),
		"salsa_engine_jobs_cancelled_total": int64(st.Cancelled),
		"salsa_engine_jobs_failed_total":    int64(st.Failed),
	}
	for counter, want := range exact {
		if got := delta(counter); got != want {
			t.Errorf("%s workers=%d: %s delta %d, want %d", name, workers, counter, got, want)
		}
	}
	if w := delta("salsa_engine_workers_started_total"); w < 1 || w > int64(workers) {
		t.Errorf("%s workers=%d: workers_started delta %d outside [1, %d]", name, workers, w, workers)
	}
	// At least the winner updated the shared incumbent; at most every
	// job did.
	if inc := delta("salsa_engine_incumbent_updates_total"); inc < 1 || inc > int64(st.Jobs) {
		t.Errorf("%s workers=%d: incumbent_updates delta %d outside [1, %d]", name, workers, inc, st.Jobs)
	}
}

// TestOneWorkerNeverSpeculates: a single worker resolves each job
// before it claims the next, so every job searches against its
// canonical incumbent and stops live exactly at its canonical pruning
// boundary — no trial is run that the reduction would discard. One
// core makes the check strict: a job resolved by any goroutine other
// than the worker would wait until the worker yields.
func TestOneWorkerNeverSpeculates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, hw := setup(t, workloads.Tseng(), 2, 1)
	o := quickOpts(3)
	o.MovesPerTrial = 120
	o.MaxTrials = 6
	jobs := engine.Restarts(o, 16)

	var finished atomic.Int64
	live := make([]int, len(jobs))
	var early []string
	_, st, err := engine.Run(context.Background(), a, hw, jobs, engine.Config{
		Workers: 1,
		TrialHook: func(job, trial int) {
			live[job]++
			if n := finished.Load(); n != int64(job) && len(early) < 8 {
				early = append(early, fmt.Sprintf("job %d trial %d ran with %d jobs finished", job, trial, n))
			}
		},
		Events: func(ev engine.Event) {
			if ev.Kind == engine.EventJobFinished {
				finished.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Pruned == 0 {
		t.Fatal("no job was pruned; the portfolio does not exercise the incumbent")
	}
	for _, e := range early {
		t.Error(e)
	}
	for i, jr := range st.PerJob {
		if live[i] != jr.Trials {
			t.Errorf("job %d ran %d trials live, canonical %d", i, live[i], jr.Trials)
		}
	}
}

// TestMatchesAllocateBest: with pruning disabled, the engine's multi-
// start portfolio reduces to exactly the best of its restarts run one
// after another through core.Allocate, kept by cost, then merged muxes,
// then lowest seed — the sequential path is the degenerate case, not a
// separate code path.
func TestMatchesAllocateBest(t *testing.T) {
	a, hw := setup(t, workloads.Tseng(), 2, 1)
	o := quickOpts(11)
	var want *core.Result
	for i := int64(0); i < 3; i++ {
		oi := o
		oi.Seed = o.Seed + i
		r, err := core.Allocate(a, hw, oi)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil || r.Cost.Total < want.Cost.Total ||
			(r.Cost.Total == want.Cost.Total && r.MergedMux < want.MergedMux) {
			want = r
		}
	}
	for _, workers := range []int{1, 4} {
		got, _, err := engine.Run(context.Background(), a, hw, engine.Restarts(o, 3),
			engine.Config{Workers: workers, DisablePruning: true})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != want.Cost || got.MergedMux != want.MergedMux {
			t.Errorf("workers=%d: engine %v/%d != best restart %v/%d",
				workers, got.Cost, got.MergedMux, want.Cost, want.MergedMux)
		}
		if fingerprint(got.Binding) != fingerprint(want.Binding) {
			t.Errorf("workers=%d: engine binding differs from the best restart's", workers)
		}
	}
}

// TestCancellationReturnsLegalBestSoFar cancels mid-search (after the
// first incumbent improvement) and checks the anytime contract: a
// legal allocation comes back quickly.
func TestCancellationReturnsLegalBestSoFar(t *testing.T) {
	a, hw := setup(t, workloads.EWF(), 2, 1)
	o := core.SALSAOptions(1)
	o.MovesPerTrial = 2000
	o.MaxTrials = 10000
	o.StallTrials = 10000

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	cfg := engine.Config{
		Workers: 4,
		Events: func(ev engine.Event) {
			if ev.Kind == engine.EventImproved {
				once.Do(cancel)
			}
		},
	}
	t0 := time.Now()
	res, st, err := engine.Run(ctx, a, hw, engine.Restarts(o, 4), cfg)
	if err != nil {
		t.Fatalf("cancelled run failed outright: %v", err)
	}
	if elapsed := time.Since(t0); elapsed > 30*time.Second {
		t.Errorf("cancellation took %s to take effect", elapsed)
	}
	if err := res.Binding.Check(); err != nil {
		t.Errorf("best-so-far binding illegal after cancellation: %v", err)
	}
	if st.Cancelled == 0 {
		t.Errorf("no job recorded as cancelled: %+v", st)
	}
	t.Logf("cancelled after %s: cost %d, %d merged muxes, %d jobs cancelled",
		st.Wall.Round(time.Millisecond), res.Cost.Total, res.MergedMux, st.Cancelled)
}

// TestDeadline: a run with an absurd budget under a context deadline
// still returns an allocation within the deadline's order of
// magnitude.
func TestDeadline(t *testing.T) {
	a, hw := setup(t, workloads.EWF(), 2, 1)
	o := core.SALSAOptions(2)
	o.MovesPerTrial = 50000
	o.MaxTrials = 10000
	o.StallTrials = 10000
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	res, st, err := engine.Run(ctx, a, hw, engine.Restarts(o, 2), engine.Config{Workers: 2})
	if err != nil {
		t.Fatalf("deadline run failed outright: %v", err)
	}
	if err := res.Binding.Check(); err != nil {
		t.Errorf("deadline result illegal: %v", err)
	}
	if elapsed := time.Since(t0); elapsed > 30*time.Second {
		t.Errorf("timeout ignored: ran %s", elapsed)
	}
	if st.Cancelled == 0 {
		t.Errorf("deadline hit but no job cancelled: %+v", st)
	}
}

// TestIncumbentStress hammers the shared-incumbent exchange: many
// small jobs, more workers than cores, live telemetry on — run under
// -race in CI. The result must still be deterministic against a
// second identical run.
func TestIncumbentStress(t *testing.T) {
	a, hw := setup(t, workloads.Tseng(), 2, 1)
	o := quickOpts(3)
	o.MovesPerTrial = 120
	o.MaxTrials = 6
	jobs := engine.Restarts(o, 16)

	var improvements, finished atomic.Int64
	run := func() (*core.Result, *engine.Stats) {
		res, st, err := engine.Run(context.Background(), a, hw, jobs, engine.Config{
			Workers: 8,
			Events: func(ev engine.Event) {
				switch ev.Kind {
				case engine.EventImproved:
					improvements.Add(1)
				case engine.EventJobFinished:
					finished.Add(1)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, st
	}
	r1, st1 := run()
	r2, st2 := run()
	if finished.Load() != int64(2*len(jobs)) {
		t.Errorf("finished events = %d, want %d", finished.Load(), 2*len(jobs))
	}
	if improvements.Load() == 0 {
		t.Error("no incumbent-improvement events at all")
	}
	if err := r1.Binding.Check(); err != nil {
		t.Fatalf("stress winner illegal: %v", err)
	}
	if fingerprint(r1.Binding) != fingerprint(r2.Binding) || r1.Cost != r2.Cost {
		t.Error("stress run not reproducible")
	}
	if st1.BestJob != st2.BestJob {
		t.Errorf("winner index differs across identical runs: %d vs %d", st1.BestJob, st2.BestJob)
	}
	t.Logf("stress: %d jobs, %d pruned, best job %d cost %d", st1.Jobs, st1.Pruned, st1.BestJob, r1.Cost.Total)
}

// TestPortfolioLabelsAndOrder checks Restarts' labelling and
// tie-break ordering contract: seeds ascend from opts.Seed, and a
// width below one still yields one job.
func TestPortfolioLabelsAndOrder(t *testing.T) {
	o := quickOpts(5)
	jobs := engine.Restarts(o, 3)
	want := []string{"seed=5", "seed=6", "seed=7"}
	if len(jobs) != len(want) {
		t.Fatalf("got %d jobs, want %d", len(jobs), len(want))
	}
	for i, j := range jobs {
		if j.Label != want[i] {
			t.Errorf("job %d label = %q, want %q", i, j.Label, want[i])
		}
		if j.Opts.Seed != o.Seed+int64(i) {
			t.Errorf("job %d seed = %d", i, j.Opts.Seed)
		}
	}
	if n := len(engine.Restarts(o, 0)); n != 1 {
		t.Errorf("Restarts(o, 0) built %d jobs, want 1", n)
	}
}

// TestEmptyPortfolio and infeasible-job accounting.
func TestEmptyPortfolio(t *testing.T) {
	a, hw := setup(t, workloads.Tseng(), 2, 1)
	if _, _, err := engine.Run(context.Background(), a, hw, nil, engine.Config{}); err == nil {
		t.Error("empty portfolio did not error")
	}
}

// TestMixedFeasibility: a portfolio mixing an infeasible traditional
// job (EWF at minimum registers) with feasible extended jobs must
// still produce the extended winner and record the failure.
func TestMixedFeasibility(t *testing.T) {
	a, hw := setup(t, workloads.EWF(), 2, 0)
	jobs := append(variant("traditional", traditionalOpts(1), 1), variant("salsa", quickOpts(1), 1)...)
	res, st, err := engine.Run(context.Background(), a, hw, jobs, engine.Config{})
	if err != nil {
		t.Fatalf("portfolio with one infeasible member failed: %v", err)
	}
	if st.Failed == 0 {
		t.Skip("traditional unexpectedly feasible at minimum registers")
	}
	if st.BestJob != 1 {
		t.Errorf("winner = job %d, want the extended job (1)", st.BestJob)
	}
	if err := res.Binding.Check(); err != nil {
		t.Errorf("winner illegal: %v", err)
	}
}

// TestCancellationOnGeneratedWorkloads extends the anytime contract to
// the random scheduled-CDFG cases the differential oracle
// (internal/crosscheck) feeds the engine: cancelling mid-trial must
// return the best-so-far incumbent as a fully consistent binding —
// legal under Check and with a reported cost that matches a from-
// scratch re-evaluation — never a partially mutated clone.
func TestCancellationOnGeneratedWorkloads(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 10; seed++ {
		cs := randgraph.Generate(seed, randgraph.Params{})
		g := cs.Graph
		d := cdfg.DefaultDelays(cs.PipelinedMul)
		a, lim, err := lifetime.MinFUAnalysis(g, d, cs.Steps)
		if err != nil {
			continue // random schedule legitimately infeasible
		}
		var inputs []string
		for i := range g.Nodes {
			if g.Nodes[i].Op == cdfg.Input {
				inputs = append(inputs, g.Nodes[i].Name)
			}
		}
		hw := datapath.NewHardware(lim, a.MinRegs+cs.ExtraRegs, inputs, true)

		// An effectively unbounded search, so only cancellation ends it.
		o := core.SALSAOptions(seed)
		o.MovesPerTrial = 2000
		o.MaxTrials = 1 << 30
		o.StallTrials = 1 << 30

		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		var once sync.Once
		cfg := engine.Config{
			Workers: 3,
			Events: func(ev engine.Event) {
				if ev.Kind == engine.EventImproved {
					once.Do(cancel) // cancel mid-search at the first improvement
				}
			},
		}
		res, st, err := engine.Run(ctx, a, hw, engine.Restarts(o, 3), cfg)
		cancel()
		if err != nil {
			t.Fatalf("seed %d: cancelled run failed outright: %v", seed, err)
		}
		if st.Cancelled == 0 {
			t.Errorf("seed %d: no job recorded as cancelled", seed)
		}
		if err := res.Binding.Check(); err != nil {
			t.Errorf("seed %d: best-so-far binding illegal after cancel: %v", seed, err)
		}
		if _, cost, err := res.Binding.Eval(); err != nil {
			t.Errorf("seed %d: best-so-far binding does not evaluate: %v", seed, err)
		} else if cost != res.Cost {
			t.Errorf("seed %d: reported cost %+v != re-evaluated %+v (partially mutated incumbent?)",
				seed, res.Cost, cost)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("every seed was infeasible; the test never exercised cancellation")
	}
}
