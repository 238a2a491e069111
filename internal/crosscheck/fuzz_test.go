package crosscheck

import (
	"sort"
	"testing"

	"salsa/internal/workloads"
)

// FuzzCrosscheck drives the whole differential oracle from a fuzzed
// (seed, shape) tuple: the fuzzer explores generator parameter space —
// op count, cyclicity, pipelining, slack — while the seed explores
// graph space within each shape. Any finding is a real divergence
// between two independent views of an allocation, so the target fails
// hard on it. The zero Config leaves every stage enabled, including
// the Paranoid re-run that checks every delta cost of each portfolio
// against a full evaluation.
//
// The seed corpus mirrors the benchmark suite: one entry per workload,
// shaped to its op count, cyclicity and multiplier style, so the fuzz
// baseline covers the same region of problem space as EXPERIMENTS.md,
// plus the regression seeds the oracle has already caught bugs with
// (the reset-edge register-load bug in the RTL emitter was found at
// default shape by seeds 5, 17, 49, 110, 164 and 190).
func FuzzCrosscheck(f *testing.F) {
	all := workloads.All()
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		g := all[name]()
		cyclicPct := uint8(1)
		if g.Cyclic {
			cyclicPct = 100
		}
		f.Add(int64(i+1), uint8(g.NumOps()), cyclicPct, uint8(30), uint8(2))
	}
	for _, seed := range []int64{5, 17, 49, 110, 164, 190} {
		f.Add(seed, uint8(12), uint8(50), uint8(30), uint8(3))
	}

	f.Fuzz(func(t *testing.T, seed int64, maxOps, cyclicPct, pipelinedPct, slack uint8) {
		cfg := Config{}
		// Map raw fuzz bytes onto the generator's parameter ranges; a
		// percentage of 0 would fall back to the default, so clamp into
		// [1, 100] to let the fuzzer force both extremes.
		cfg.Gen.MaxOps = int(maxOps%24) + 2
		cfg.Gen.MinOps = 2
		cfg.Gen.CyclicPct = int(cyclicPct%100) + 1
		cfg.Gen.PipelinedPct = int(pipelinedPct%100) + 1
		cfg.Gen.MaxSlack = int(slack%5) + 1
		rep := cfg.RunSeed(seed)
		if rep.Status == StatusFinding {
			t.Fatalf("seed %d shape(maxOps=%d cyclic=%d%% pipelined=%d%% slack=%d): finding at %s: %s",
				seed, cfg.Gen.MaxOps, cfg.Gen.CyclicPct, cfg.Gen.PipelinedPct, cfg.Gen.MaxSlack,
				rep.Stage, rep.Detail)
		}
	})
}
