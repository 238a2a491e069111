// Command salsa schedules and allocates a CDFG with the extended
// binding model, reporting the datapath cost and optionally emitting a
// DOT rendering of the graph, a structural RTL netlist, and a
// simulation-based verification of the allocation.
//
// Usage:
//
//	salsa -bench ewf -steps 19 -extra-regs 1 -rtl ewf.v
//	salsa -cdfg mydesign.json -mode both -verify
//	salsa -bench diffeq -json            # machine-readable result
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"salsa"
	"salsa/internal/cdfg"
	"salsa/internal/client"
	"salsa/internal/core"
	"salsa/internal/datapath"
	"salsa/internal/engine"
	"salsa/internal/library"
	"salsa/internal/place"
	"salsa/internal/report"
	"salsa/internal/sched"
	"salsa/internal/service"
	"salsa/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("salsa", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "", "built-in benchmark: ewf, dct, fir16, fir8, arf, diffeq, tseng, figure1")
		cdfgPath  = fs.String("cdfg", "", "CDFG JSON file (alternative to -bench)")
		steps     = fs.Int("steps", 0, "schedule length in control steps (default: critical path + 2)")
		pipelined = fs.Bool("pipelined", false, "use pipelined multipliers (latency 2, initiation interval 1)")
		extraRegs = fs.Int("extra-regs", 0, "registers beyond the minimum")
		seed      = fs.Int64("seed", 1, "random seed for the iterative improvement search")
		restarts  = fs.Int("restarts", 3, "independent search restarts (best kept)")
		workers   = fs.Int("workers", runtime.NumCPU(), "parallel search workers (results are identical for any count)")
		timeout   = fs.Duration("timeout", 0, "search deadline, e.g. 30s (0 = none; on expiry the best allocation so far is kept)")
		mode      = fs.String("mode", "salsa", "binding model: salsa, traditional, matching, or both")
		scheduler = fs.String("scheduler", "list", "scheduler: list (resource-constrained) or fds (force-directed)")
		verify    = fs.Bool("verify", true, "cross-check the allocation by cycle-accurate simulation")
		jsonMode  = fs.Bool("json", false, "emit the machine-readable result schema (same document salsad serves) instead of prose")
		remote    = fs.String("remote", "", "salsad base URL, e.g. http://127.0.0.1:8080: allocate via the service (retrying on transient failures) instead of locally; implies -json output")
		dotOut    = fs.String("dot", "", "write the CDFG in Graphviz DOT form to this file")
		jsonOut   = fs.String("dump-json", "", "write the CDFG in the hand-authorable JSON schema to this file")
		rtlOut    = fs.String("rtl", "", "write the structural RTL netlist to this file")
		verbose   = fs.Bool("v", false, "print the full binding (per-op FU, per-segment register)")
		chart     = fs.Bool("chart", false, "print register/FU occupancy charts and the mux summary")
		doPlace   = fs.Bool("place", false, "estimate layout: optimized 1-D module placement and wire length")
		area      = fs.Bool("area", false, "print the gate-equivalent area report (16-bit library)")
		simInputs = fs.String("sim", "", "simulate the datapath on comma-separated inputs/states, e.g. \"x=3,y=4\" (loops run 4 iterations)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "salsa:", err)
		return 1
	}
	params := salsa.Params{Steps: *steps, PipelinedMultipliers: *pipelined, ExtraRegisters: *extraRegs}
	switch strings.ToLower(*scheduler) {
	case "list":
	case "fds":
		params.ForceDirected = true
	default:
		return fail(fmt.Errorf("unknown -scheduler %q", *scheduler))
	}

	g, err := loadGraph(*benchName, *cdfgPath)
	if err != nil {
		return fail(err)
	}

	if *jsonMode || *remote != "" {
		// Machine-readable mode: execute through the same request-level
		// path the salsad service uses, so `salsa -json` output is
		// byte-identical to a service response body for the same
		// request. Prose flags (-chart, -place, ...) are ignored here;
		// with -remote, -v reports the exchange's provenance (serving
		// shard, cache state, attempts) on stderr, keeping stdout
		// byte-identical either way.
		p := jsonParams{
			params: params, mode: *mode, seed: *seed, restarts: *restarts,
			workers: *workers, timeout: *timeout, verify: *verify,
		}
		if *remote != "" {
			return runRemote(stdout, stderr, g, p, *remote, *verbose)
		}
		return runJSON(stdout, stderr, g, p)
	}

	fmt.Fprintln(stdout, g.Stats())

	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(g.DOT()), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *dotOut)
	}
	if *jsonOut != "" {
		data, err := g.MarshalJSON()
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonOut)
	}

	des, err := salsa.Compile(g, params)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "schedule: %d steps (critical path %d), %d ALUs, %d multipliers, min %d registers\n",
		des.Steps(), g.CriticalPath(des.Analysis.Sched.Delays),
		des.Limits[sched.ClassALU], des.Limits[sched.ClassMul], des.MinRegisters())

	engCfg := salsa.EngineConfig{Workers: *workers}
	if *verbose {
		engCfg.Events = func(ev salsa.Event) {
			if ev.Kind == engine.EventImproved {
				fmt.Fprintln(stdout, "   "+ev.String())
			}
		}
	}

	// runJobs fans the portfolio over the engine's worker pool; the
	// winner is deterministic for any -workers value. Each portfolio
	// gets the full -timeout, so -mode both budgets each model alike.
	runJobs := func(name string, jobs []salsa.Job) *salsa.Result {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		res, stats, err := des.AllocatePortfolio(ctx, jobs, engCfg)
		switch {
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			// Not the paper's infeasibility: the search ran out of time.
			fmt.Fprintf(stdout, "%-12s no allocation before the -timeout deadline\n", name+":")
			return nil
		case err != nil:
			fmt.Fprintf(stdout, "%-12s infeasible: %v\n", name+":", err)
			return nil
		}
		fmt.Fprintf(stdout, "%-12s %2d muxes (%2d merged), %2d registers, %d FUs; %d/%d moves accepted; init %d -> final %d\n",
			name+":", res.Cost.MuxCost, res.MergedMux, res.Cost.RegsUsed, res.Cost.FUsUsed,
			res.MovesAccepted, res.MovesTried, res.InitialCost.Total, res.Cost.Total)
		if *verbose {
			for _, jr := range stats.PerJob {
				switch {
				case jr.Err != nil:
					fmt.Fprintf(stdout, "%-12s   %-16s failed: %v\n", "", jr.Label, jr.Err)
				default:
					note := ""
					if jr.Pruned {
						note = " (pruned)"
					} else if jr.Cancelled {
						note = " (cancelled)"
					}
					fmt.Fprintf(stdout, "%-12s   %-16s best %3d (%2d merged) after %d trials%s\n",
						"", jr.Label, jr.Cost.Total, jr.Merged, jr.Trials, note)
				}
			}
			fmt.Fprintf(stdout, "%-12s %s\n", "", stats)
			if stats.BestJob >= 0 {
				fmt.Fprintf(stdout, "%-12s winner: job %d (%s)\n", "", stats.BestJob, stats.PerJob[stats.BestJob].Label)
			}
		}
		if res.Binding.NumPass() > 0 || res.Binding.NumCopies() > 0 {
			fmt.Fprintf(stdout, "%-12s %d pass-throughs, %d value copies\n", "", res.Binding.NumPass(), res.Binding.NumCopies())
		}
		ba := res.IC.AllocateBuses()
		fmt.Fprintf(stdout, "%-12s bus-style alternative: %d buses, %d sink muxes, %d drivers\n",
			"", ba.Buses, ba.MuxCost, ba.Drivers)
		return res
	}
	runMode := func(name string, opts salsa.Options) *salsa.Result {
		return runJobs(name, salsa.Restarts(opts, *restarts))
	}

	var final *salsa.Result
	switch strings.ToLower(*mode) {
	case "salsa":
		final = runMode("salsa", salsa.SALSAOptions(*seed))
	case "traditional":
		final = runMode("traditional", salsa.TraditionalOptions(*seed))
	case "matching":
		res, err := core.MatchingAllocate(des.Analysis, des.Hardware)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%-12s %2d muxes (%2d merged), %2d registers (constructive bipartite matching)\n",
			"matching:", res.Cost.MuxCost, res.MergedMux, res.Cost.RegsUsed)
		final = res
	case "both":
		trad := runMode("traditional", salsa.TraditionalOptions(*seed))
		final = runJobs("salsa", salsa.WarmPortfolio(salsa.SALSAOptions(*seed), *restarts, trad))
	default:
		return fail(fmt.Errorf("unknown -mode %q", *mode))
	}
	if final == nil {
		return 1
	}

	if *verbose {
		printBinding(stdout, final)
	}
	if *chart {
		out, err := report.Full(final.Binding)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, out)
	}
	if *area {
		r, err := library.Analyze(library.Default(), final.Binding)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, r.String())
	}
	if *doPlace {
		pl := place.Linear(final.IC)
		var names []string
		for _, m := range pl.Order {
			if m.Kind == datapath.SrcFU {
				names = append(names, final.Binding.HW.FUs[m.Index].Name)
			} else {
				names = append(names, final.Binding.HW.Regs[m.Index].Name)
			}
		}
		fmt.Fprintf(stdout, "placement:   %s (wire length %d, %d improving swaps)\n",
			strings.Join(names, " | "), pl.WireLength, pl.Swaps)
	}

	if *verify {
		if err := des.Verify(final); err != nil {
			return fail(fmt.Errorf("verification FAILED: %w", err))
		}
		fmt.Fprintln(stdout, "verified: cycle-accurate simulation matches reference semantics")
	}

	if *simInputs != "" {
		env, err := parseEnv(*simInputs)
		if err != nil {
			return fail(err)
		}
		iters := 1
		if g.Cyclic {
			iters = 4
		}
		outs, err := des.Simulate(final, env, iters)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "simulation (%d iteration(s)):\n", iters)
		var names []string
		for name := range outs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(stdout, "  %s = %d\n", name, outs[name])
		}
	}

	if *rtlOut != "" {
		nl, err := des.EmitRTL(final, strings.ReplaceAll(g.Name, "-", "_")+"_dp")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*rtlOut, []byte(nl.Text), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d FUs, %d registers, %d merged muxes)\n", *rtlOut, nl.FUs, nl.Regs, nl.Muxes)
	}
	return 0
}

// runRemote ships the allocation to a salsad service and prints the
// response body — the same ResultJSON document runJSON prints, served
// remotely. The client retries transient failures (connection errors,
// 408/429/5xx) with capped jittered backoff, honoring Retry-After.
// With verbose, the exchange's provenance goes to stderr: the serving
// shard and cache headers a cluster router adds (X-Salsa-Shard,
// X-Salsa-Cache) and the attempt count — stdout stays byte-identical.
func runRemote(stdout, stderr io.Writer, g *cdfg.Graph, p jsonParams, baseURL string, verbose bool) int {
	graphJSON, err := g.MarshalJSON()
	if err != nil {
		fmt.Fprintln(stderr, "salsa:", err)
		return 1
	}
	ar := &service.AllocateRequest{
		Graph:                graphJSON,
		Steps:                p.params.Steps,
		PipelinedMultipliers: p.params.PipelinedMultipliers,
		ExtraRegisters:       p.params.ExtraRegisters,
		ForceDirected:        p.params.ForceDirected,
		Mode:                 strings.ToLower(p.mode),
		Seed:                 p.seed,
		Restarts:             p.restarts,
		TimeoutMS:            p.timeout.Milliseconds(),
	}
	c := client.New(client.Config{BaseURL: strings.TrimRight(baseURL, "/"), Seed: p.seed})
	res, err := c.Do(context.Background(), ar)
	if err != nil {
		fmt.Fprintln(stderr, "salsa:", err)
		return 1
	}
	if verbose {
		shard, cache := res.Shard, res.Cache
		if shard == "" {
			shard = "direct"
		}
		if cache == "" {
			cache = "none"
		}
		fmt.Fprintf(stderr, "salsa: remote shard=%s cache=%s attempts=%d\n", shard, cache, res.Attempts)
	}
	fmt.Fprint(stdout, string(res.Body))
	return 0
}

// jsonParams carries the flag subset the -json path consumes.
type jsonParams struct {
	params   salsa.Params
	mode     string
	seed     int64
	restarts int
	workers  int
	timeout  time.Duration
	verify   bool
}

// runJSON executes the allocation through the request-level façade and
// prints the shared ResultJSON schema: the same bytes the salsad
// service would serve for an equivalent request body.
func runJSON(stdout, stderr io.Writer, g *cdfg.Graph, p jsonParams) int {
	req := salsa.Request{
		Graph:    g,
		Params:   p.params,
		Mode:     strings.ToLower(p.mode),
		Seed:     p.seed,
		Restarts: p.restarts,
	}.Normalize()
	req.Engine.Workers = p.workers

	ctx := context.Background()
	if p.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.timeout)
		defer cancel()
	}
	des, res, stats, err := salsa.Execute(ctx, req)
	if err != nil {
		fmt.Fprintln(stderr, "salsa:", err)
		return 1
	}
	rj := salsa.BuildResultJSON(req.Graph, des.Steps(), req.Mode, req.Seed, req.Restarts, res, stats)
	body, err := json.Marshal(rj)
	if err != nil {
		fmt.Fprintln(stderr, "salsa:", err)
		return 1
	}
	if p.verify {
		if err := des.Verify(res); err != nil {
			fmt.Fprintln(stderr, "salsa: verification FAILED:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(body))
	return 0
}

func loadGraph(bench, path string) (*cdfg.Graph, error) {
	switch {
	case bench != "" && path != "":
		return nil, fmt.Errorf("use either -bench or -cdfg, not both")
	case bench != "":
		build, ok := workloads.All()[strings.ToLower(bench)]
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", bench)
		}
		return build(), nil
	case path != "":
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return cdfg.ParseJSON(data)
	default:
		return nil, fmt.Errorf("specify -bench <name> or -cdfg <file>")
	}
}

func printBinding(stdout io.Writer, res *salsa.Result) {
	b := res.Binding
	g := b.A.Sched.G
	fmt.Fprintln(stdout, "operator bindings:")
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if !n.Op.IsArith() {
			continue
		}
		fmt.Fprintf(stdout, "  %-8s @%2d -> %s\n", n.Name, b.A.Sched.Start[i], b.HW.FUs[b.OpFU[i]].Name)
	}
	fmt.Fprintln(stdout, "value bindings:")
	for i := range b.A.Values {
		v := &b.A.Values[i]
		var segs []string
		for k := 0; k < v.Len; k++ {
			segs = append(segs, fmt.Sprintf("R%d", b.SegReg[i][k]))
		}
		fmt.Fprintf(stdout, "  %-8s born @%2d: %s\n", v.Name, v.Birth, strings.Join(segs, " "))
	}
}

// parseEnv parses "a=1,b=-2" into an evaluation environment.
func parseEnv(s string) (cdfg.Env, error) {
	env := cdfg.Env{}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -sim entry %q (want name=value)", kv)
		}
		var v int64
		if _, err := fmt.Sscanf(strings.TrimSpace(parts[1]), "%d", &v); err != nil {
			return nil, fmt.Errorf("bad -sim value in %q: %v", kv, err)
		}
		env[strings.TrimSpace(parts[0])] = v
	}
	return env, nil
}
