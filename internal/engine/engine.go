// Package engine is the parallel portfolio search orchestrator: it
// fans a portfolio of allocation jobs (derived seeds × option
// variants) across a bounded worker pool, cancels cleanly on context
// deadline while keeping every job's best-so-far result (anytime
// semantics), prunes walks that can no longer beat the shared
// incumbent, and reduces the outcomes to a single winner.
//
// # Determinism
//
// The engine guarantees that the winning allocation — and every
// canonical per-job result in Stats — is byte-identical for any
// worker count and any completion order, given the same portfolio.
// Two mechanisms make this work:
//
//  1. The reduction resolves jobs strictly in portfolio order and
//     picks the winner by (cost, merged-mux count, job index), so the
//     comparison sequence never depends on which worker finished
//     first.
//
//  2. Incumbent pruning is defined canonically, not operationally: job
//     i's pruning boundary is the first trial t with no improvement
//     whose best cost exceeds the best canonical result among jobs
//     0..i-1 — a function only of the jobs' deterministic search
//     trajectories. Workers consult the shared atomic incumbent to
//     stop early, but the incumbent only ever carries canonical
//     results of already-resolved lower-index jobs, so a live stop can
//     never come before the canonical boundary — only after it, when
//     a lower-index job was still running. Any overrun is discarded by
//     the reduction, which rebuilds the canonical result from the
//     job's recorded trial-boundary trajectory (core.Finalize on the
//     best-so-far at the boundary — the same bytes a live stop there
//     would have produced). Workers claim jobs in portfolio order and
//     resolve the finished prefix before claiming the next job, so
//     with one worker the incumbent is always canonical and no job
//     overruns.
//
// Cancellation is the one escape hatch: a deadline stops jobs mid-
// trial, which is inherently timing-dependent, so runs that hit their
// deadline trade the determinism guarantee for the anytime result.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"salsa/internal/binding"
	"salsa/internal/core"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
)

// Config tunes one engine run.
type Config struct {
	// Workers bounds the number of concurrent searches; <= 0 selects
	// GOMAXPROCS. Workers = 1 is the sequential degenerate case: jobs
	// run one at a time in portfolio order on the calling goroutine,
	// each resolved before the next starts.
	Workers int
	// DisablePruning turns shared-incumbent pruning off, running every
	// job to natural termination (useful for measuring what pruning
	// saves).
	DisablePruning bool
	// Events, when non-nil, receives progress telemetry. Invocations
	// are serialized; the callback must not block for long or it will
	// stall the search workers.
	Events func(Event)
	// TrialHook, when non-nil, is invoked at every trial boundary of
	// every job, before the pruning decision for that trial. It exists
	// so simulation tests (internal/simtest) can pace or stall searches
	// in virtual time; it must not influence search decisions — the
	// trajectory a job records is identical with or without it — and it
	// is never set in production.
	TrialHook func(job, trial int)
}

// Run executes the portfolio against one shared (read-only) analysis
// and hardware set and returns the winning allocation, aggregate
// statistics, and an error only when no job produced a result. See the
// package comment for the determinism contract.
func Run(ctx context.Context, a *lifetime.Analysis, hw *datapath.Hardware, jobs []Job, cfg Config) (*core.Result, *Stats, error) {
	start := time.Now()
	if len(jobs) == 0 {
		return nil, nil, errors.New("engine: empty portfolio")
	}
	if ctx == nil {
		// A nil ctx means the caller opted out of cancellation; there is
		// no caller context to derive from.
		//lint:ctxflow nil-ctx default, no caller context exists to derive from
		ctx = context.Background()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	counters.Runs.Add(1)
	counters.Jobs.Add(int64(len(jobs)))
	counters.WorkersStarted.Add(int64(workers))

	eng := &run{
		jobs: jobs, cfg: cfg, start: start,
		outcomes: make([]*outcome, len(jobs)),
		st:       &Stats{Jobs: len(jobs), BestJob: -1, PerJob: make([]JobResult, len(jobs))},
	}
	eng.incumbent.Store(math.MaxInt64)
	eng.liveBest = math.MaxInt64

	// The calling goroutine is one of the workers. Workers drain the
	// portfolio even after cancellation (a cancelled job returns its
	// best-so-far almost immediately), so every job is resolved.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng.work(ctx, a, hw)
		}()
	}
	eng.work(ctx, a, hw)
	wg.Wait()
	eng.resolveMu.Lock()
	st, winner := eng.st, eng.winner
	eng.resolveMu.Unlock()
	st.Wall = time.Since(start)

	if winner == nil {
		if err := ctx.Err(); err != nil {
			return nil, st, fmt.Errorf("engine: no allocation before cancellation: %w", err)
		}
		for i := range st.PerJob {
			if st.PerJob[i].Err != nil {
				return nil, st, st.PerJob[i].Err
			}
		}
		return nil, st, errors.New("engine: no job produced a result")
	}
	return winner, st, nil
}

// trialRec is one trial boundary of a job's search trajectory: enough
// to recompute the canonical pruning point and rebuild the canonical
// result when the live search overran it.
type trialRec struct {
	total    int          // best cost total at the end of the trial
	cost     binding.Cost // full best cost at the end of the trial
	improved bool         // whether this trial improved the best
	tried    int          // cumulative moves tried
	accepted int          // cumulative moves accepted
	// best is a clone of the best-so-far binding, recorded when the
	// trial improved it (and always at the first boundary); nil means
	// "same as the previous record".
	best *binding.Binding
}

// outcome is what a worker hands the reduction.
type outcome struct {
	res *core.Result // as returned by the search; nil on error
	err error
	log []trialRec
	dur time.Duration
}

// run is the shared state of one engine invocation.
type run struct {
	jobs  []Job
	cfg   Config
	start time.Time

	// next is the index of the next job to claim: workers take jobs in
	// portfolio order.
	next atomic.Int64

	// incumbent is the canonical prefix minimum: the best total cost
	// among already-resolved jobs. Only the reduction writes it (in
	// portfolio order); workers load it at trial boundaries to decide
	// whether a stalled walk can still beat the global best. Because
	// the resolved prefix never reaches a still-running job's index,
	// every value a worker observes comes from lower-index jobs only.
	incumbent atomic.Int64

	// The reduction: finished jobs' outcomes, folded into st and winner
	// strictly in portfolio order by whichever worker completes the
	// resolvable prefix. EventJobFinished is emitted under resolveMu,
	// which keeps those events in portfolio order.
	outcomes  []*outcome   // guarded by resolveMu; nil until the job finishes
	resolved  int          // guarded by resolveMu; jobs 0..resolved-1 are folded in
	st        *Stats       // guarded by resolveMu
	winner    *core.Result // guarded by resolveMu
	resolveMu sync.Mutex

	// liveBest tracks the best trial-end cost seen anywhere, for
	// EventImproved telemetry; guarded by mu so the event stream is
	// monotone. Separate from incumbent: speculative, timing-dependent,
	// never consulted for pruning.
	liveBest int64 // guarded by mu
	mu       sync.Mutex
}

// work is one worker's loop. It claims the next job in portfolio
// order, runs it, and resolves the portfolio's finished prefix before
// it claims another, so that a job claimed after every lower-index job
// finished runs against its canonical incumbent. With one worker every
// job does, and no trial runs past its canonical pruning boundary.
func (eng *run) work(ctx context.Context, a *lifetime.Analysis, hw *datapath.Hardware) {
	for {
		idx := int(eng.next.Add(1) - 1)
		if idx >= len(eng.jobs) {
			return
		}
		out := eng.runJob(ctx, a, hw, idx)
		eng.resolveMu.Lock()
		eng.outcomes[idx] = out
		for eng.resolved < len(eng.jobs) && eng.outcomes[eng.resolved] != nil {
			eng.resolve(eng.resolved, eng.outcomes[eng.resolved], eng.st, &eng.winner)
			eng.resolved++
		}
		eng.resolveMu.Unlock()
	}
}

func (eng *run) emit(ev Event) {
	if eng.cfg.Events == nil {
		return
	}
	ev.Elapsed = time.Since(eng.start)
	eng.mu.Lock()
	eng.cfg.Events(ev)
	eng.mu.Unlock()
}

// improvedTo reports a new trial-end best and emits EventImproved when
// it beats the live incumbent.
func (eng *run) improvedTo(idx, trial, total int) {
	if eng.cfg.Events == nil {
		return
	}
	eng.mu.Lock()
	if int64(total) < eng.liveBest {
		eng.liveBest = int64(total)
		ev := Event{
			Kind: EventImproved, Job: idx, Label: eng.jobs[idx].Label,
			Seed: eng.jobs[idx].Opts.Seed, Trial: trial, Cost: total,
			Elapsed: time.Since(eng.start),
		}
		eng.cfg.Events(ev)
	}
	eng.mu.Unlock()
}

// runJob executes one portfolio entry on the calling worker goroutine.
func (eng *run) runJob(ctx context.Context, a *lifetime.Analysis, hw *datapath.Hardware, idx int) *outcome {
	t0 := time.Now()
	job := eng.jobs[idx]
	eng.emit(Event{Kind: EventJobStarted, Job: idx, Label: job.Label, Seed: job.Opts.Seed})
	out := &outcome{}
	ctl := &core.Control{
		// core.Control is a framework slot: the core allocator takes its
		// cancellation signal through this struct rather than a parameter.
		//lint:ctxflow core.Control is the allocator's designed context carrier
		Ctx: ctx,
		TrialEnd: func(trial int, best *binding.Binding, bestCost binding.Cost, improved bool, tried, accepted int) bool {
			if eng.cfg.TrialHook != nil {
				eng.cfg.TrialHook(idx, trial)
			}
			rec := trialRec{
				total: bestCost.Total, cost: bestCost, improved: improved,
				tried: tried, accepted: accepted,
			}
			if improved || len(out.log) == 0 {
				rec.best = best.Clone()
			}
			out.log = append(out.log, rec)
			if improved {
				eng.improvedTo(idx, trial, bestCost.Total)
			}
			if eng.cfg.DisablePruning {
				return false
			}
			// The live pruning check: a stalled walk that cannot beat
			// the canonical incumbent gives up. The incumbent may lag
			// the canonical value (lower-index jobs still in flight),
			// so this stop can only come at or after the canonical
			// boundary; the reduction trims any overrun.
			return !improved && int64(bestCost.Total) > eng.incumbent.Load()
		},
	}
	out.res, out.err = core.AllocateControlled(a, hw, job.Opts, ctl)
	out.dur = time.Since(t0)
	return out
}

// resolve folds job idx's outcome into the reduction. It is called in
// strict portfolio order, under resolveMu.
func (eng *run) resolve(idx int, out *outcome, st *Stats, winner **core.Result) {
	job := eng.jobs[idx]
	jr := JobResult{Job: idx, Label: job.Label, Seed: job.Opts.Seed, Duration: out.dur, Err: out.err}

	res := out.res
	switch {
	case out.err != nil:
		if errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded) {
			jr.Cancelled = true
			st.Cancelled++
			counters.JobsCancelled.Add(1)
		} else {
			st.Failed++
			counters.JobsFailed.Add(1)
		}
	case res.Stop == core.StopCancelled:
		// Deadline hit mid-trial: keep the anytime best-so-far as is.
		// Determinism is forfeited for this run by definition.
		jr.Cancelled = true
		st.Cancelled++
		counters.JobsCancelled.Add(1)
	default:
		if t := eng.canonicalStop(out.log); t >= 0 {
			jr.Pruned = true
			st.Pruned++
			counters.JobsPruned.Add(1)
			if t < len(out.log)-1 {
				// The job overran its canonical boundary before the
				// incumbent caught up with it; rebuild the canonical
				// result from the recorded trajectory.
				trunc, err := eng.truncate(out, t, job.Opts)
				if err != nil {
					jr.Err = err
					st.Failed++
					counters.JobsFailed.Add(1)
					res = nil
					break
				}
				res = trunc
			} else {
				res.Stop = core.StopPruned
			}
		}
	}

	if res != nil {
		jr.Cost = res.Cost
		jr.Merged = res.MergedMux
		jr.Trials = res.Trials
		jr.MovesTried = res.MovesTried
		jr.MovesAccepted = res.MovesAccepted
		st.Trials += res.Trials
		st.MovesTried += res.MovesTried
		st.MovesAccepted += res.MovesAccepted
		counters.Trials.Add(int64(res.Trials))
		counters.MovesTried.Add(int64(res.MovesTried))
		counters.MovesAccepted.Add(int64(res.MovesAccepted))
		if int64(res.Cost.Total) < eng.incumbent.Load() {
			eng.incumbent.Store(int64(res.Cost.Total))
			counters.IncumbentUpdates.Add(1)
		}
		if *winner == nil || res.Cost.Total < (*winner).Cost.Total ||
			(res.Cost.Total == (*winner).Cost.Total && res.MergedMux < (*winner).MergedMux) {
			*winner = res
			st.BestJob = idx
			st.BestCost = res.Cost
			st.BestMerged = res.MergedMux
		}
	}
	st.PerJob[idx] = jr

	ev := Event{
		Kind: EventJobFinished, Job: idx, Label: job.Label, Seed: job.Opts.Seed,
		Pruned: jr.Pruned, Err: jr.Err,
	}
	if res != nil {
		ev.Cost = res.Cost.Total
		ev.Merged = res.MergedMux
	}
	eng.emit(ev)
}

// canonicalStop returns the canonical pruning boundary for a completed
// trajectory — the first trial with no improvement whose best exceeds
// the canonical incumbent over lower-index jobs — or -1 when the job
// runs to natural termination. The incumbent is read here, in the
// reduction, after all lower-index jobs have been resolved, so the
// answer is independent of worker count and timing.
func (eng *run) canonicalStop(log []trialRec) int {
	if eng.cfg.DisablePruning {
		return -1
	}
	inc := eng.incumbent.Load()
	for t := range log {
		if !log[t].improved && int64(log[t].total) > inc {
			return t
		}
	}
	return -1
}

// truncate rebuilds the canonical result of a job stopped at trial
// boundary t: the recorded best-so-far at t, polished exactly as a
// live stop there would have polished it.
func (eng *run) truncate(out *outcome, t int, opts core.Options) (*core.Result, error) {
	var best *binding.Binding
	for k := t; k >= 0; k-- {
		if out.log[k].best != nil {
			best = out.log[k].best
			break
		}
	}
	if best == nil {
		return nil, errors.New("engine: trajectory log missing best binding")
	}
	res, err := core.Finalize(best, out.log[t].cost, opts)
	if err != nil {
		return nil, fmt.Errorf("engine: canonical truncation: %w", err)
	}
	res.Trials = t + 1
	res.MovesTried = out.log[t].tried
	res.MovesAccepted = out.log[t].accepted
	res.InitialCost = out.res.InitialCost
	res.Stop = core.StopPruned
	return res, nil
}
