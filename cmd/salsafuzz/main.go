// Command salsafuzz drives the differential allocation oracle
// (internal/crosscheck) over a range of generator seeds: each seed
// becomes a random scheduled CDFG that is allocated under both binding
// models, re-checked for legality and cost, simulated cycle-accurately,
// re-simulated from emitted RTL, and re-run under a different engine
// worker count with every delta cost checked against a full evaluation.
// Any divergence is a finding; the process exits 1 if any seed produced
// one, 0 otherwise.
//
// Usage:
//
//	salsafuzz -seeds 1000 -seed-start 1
//	salsafuzz -seeds 200 -json -shrink > findings.jsonl
//	salsafuzz -seeds 50 -inject seg-alias -shrink   # demonstrate the oracle
//
// Output is deterministic: the same seeds and flags produce
// byte-identical output (including -json) for any -workers value,
// because every report is a pure function of (seed, config) and
// results are emitted in seed order.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"salsa/internal/crosscheck"
	"salsa/internal/randgraph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("salsafuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds     = fs.Int("seeds", 100, "number of seeds to crosscheck")
		seedStart = fs.Int64("seed-start", 1, "first seed of the range")
		jsonOut   = fs.Bool("json", false, "emit one JSON report per seed on stdout (stable byte-for-byte)")
		shrink    = fs.Bool("shrink", false, "minimize each finding before reporting it")
		workers   = fs.Int("workers", runtime.NumCPU(), "seeds crosschecked in parallel (output is identical for any count)")
		inject    = fs.String("inject", "", fmt.Sprintf("plant a fault into every extended binding to demonstrate the oracle; one of %v", crosscheck.FaultKinds()))
		simIters  = fs.Int("sim-iters", 0, "loop iterations simulated per cyclic case (0 = oracle default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seeds <= 0 {
		fmt.Fprintln(stderr, "salsafuzz: -seeds must be positive")
		return 2
	}
	cfg := crosscheck.Config{SimIters: *simIters}
	if *inject != "" {
		f, err := crosscheck.InjectFault(*inject)
		if err != nil {
			fmt.Fprintln(stderr, "salsafuzz:", err)
			return 2
		}
		cfg.Inject = f
	}

	reports := crosscheckAll(cfg, *seedStart, *seeds, *workers, *shrink, stderr)

	var ok, infeasible, findings int
	for _, rep := range reports {
		switch rep.Status {
		case crosscheck.StatusOK:
			ok++
		case crosscheck.StatusInfeasible:
			infeasible++
		case crosscheck.StatusFinding:
			findings++
		}
		if *jsonOut {
			line, err := json.Marshal(rep)
			if err != nil {
				fmt.Fprintln(stderr, "salsafuzz: marshalling report:", err)
				return 2
			}
			fmt.Fprintln(stdout, string(line))
		} else if rep.Status == crosscheck.StatusFinding {
			fmt.Fprintf(stdout, "FINDING seed %d (%s, %d ops, %d steps): [%s] %s\n",
				rep.Seed, rep.Name, rep.Ops, rep.Steps, rep.Stage, rep.Detail)
			if rep.Shrunk != nil {
				fmt.Fprintf(stdout, "  shrunk to %d ops / %d nodes / %d steps (+%d regs) in %d attempts: [%s] %s\n",
					rep.Shrunk.Ops, rep.Shrunk.Nodes, rep.Shrunk.Steps, rep.Shrunk.ExtraRegs,
					rep.Shrunk.Attempts, rep.Shrunk.Stage, rep.Shrunk.Detail)
				fmt.Fprintf(stdout, "  replay graph: %s\n", rep.Shrunk.GraphJSON)
			}
		}
	}

	summary := fmt.Sprintf("salsafuzz: %d seeds starting at %d: %d ok, %d infeasible, %d findings",
		*seeds, *seedStart, ok, infeasible, findings)
	if *jsonOut {
		// Keep stdout pure JSONL; the summary is operator feedback.
		fmt.Fprintln(stderr, summary)
	} else {
		fmt.Fprintln(stdout, summary)
	}
	if findings > 0 {
		return 1
	}
	return 0
}

// crosscheckAll fans the seed range over a worker pool and returns the
// reports in seed order. Each report is a pure function of its seed and
// the config, so the worker count never changes the result, only the
// wall-clock time.
func crosscheckAll(cfg crosscheck.Config, start int64, n, workers int, shrink bool, stderr io.Writer) []*crosscheck.Report {
	if workers < 1 {
		workers = 1
	}
	reports := make([]*crosscheck.Report, n)
	var next int64 // atomically claimed index, via the mutex below
	var mu sync.Mutex
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= int64(n) {
			return -1
		}
		next++
		return int(next - 1)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i < 0 {
					return
				}
				seed := start + int64(i)
				rep := cfg.RunSeed(seed)
				if rep.Status == crosscheck.StatusFinding && shrink {
					attachShrunk(cfg, seed, rep, stderr, &mu)
				}
				reports[i] = rep
			}
		}()
	}
	wg.Wait()
	return reports
}

// attachShrunk minimizes one finding and attaches the result to its
// report. Shrink failures (a marshalling error on the minimized graph)
// are reported but do not mask the finding itself.
func attachShrunk(cfg crosscheck.Config, seed int64, rep *crosscheck.Report, stderr io.Writer, mu *sync.Mutex) {
	cs := randgraph.Generate(seed, cfg.Gen)
	min, minRep, attempts := cfg.Shrink(seed, cs, 0)
	if minRep == nil {
		return // raced into a pass; keep the original finding unshrunk
	}
	info, err := crosscheck.ShrunkInfo(min, minRep, attempts)
	if err != nil {
		mu.Lock()
		fmt.Fprintf(stderr, "salsafuzz: seed %d: shrink: %v\n", seed, err)
		mu.Unlock()
		return
	}
	rep.Shrunk = info
}
