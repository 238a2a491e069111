package crosscheck

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"salsa"
	"salsa/internal/binding"
	"salsa/internal/cdfg"
	"salsa/internal/core"
	"salsa/internal/engine"
	"salsa/internal/randgraph"
)

// fastConfig keeps unit-test runtime low; the full-stage configuration
// (including the Paranoid re-run under a different worker count) is
// exercised by TestSeedsClean and the salsafuzz CI smoke run.
func fastConfig() Config {
	return Config{DisableDeterminism: true}
}

// TestSeedsClean runs the complete oracle (all stages, including the
// worker-count determinism re-run) over a seed range and requires zero
// findings: on a healthy tree every divergence the oracle can detect
// has been fixed. Infeasible cases are fine — tight random schedules
// legitimately fail compilation — but they must be classified as such,
// never as findings.
func TestSeedsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed oracle sweep")
	}
	var ok, infeasible int
	for seed := int64(1); seed <= 60; seed++ {
		rep := Config{}.RunSeed(seed)
		switch rep.Status {
		case StatusOK:
			ok++
			if rep.SalsaCost < 0 {
				t.Errorf("seed %d: ok but salsa_cost=%d", seed, rep.SalsaCost)
			}
			if rep.TradCost >= 0 && rep.SalsaCost > rep.TradCost {
				t.Errorf("seed %d: report violates cost dominance: %d > %d", seed, rep.SalsaCost, rep.TradCost)
			}
		case StatusInfeasible:
			infeasible++
			if rep.Stage != StageCompile {
				t.Errorf("seed %d: infeasible at stage %q, want %q", seed, rep.Stage, StageCompile)
			}
		case StatusFinding:
			t.Errorf("seed %d: FINDING at %s: %s", seed, rep.Stage, rep.Detail)
		}
	}
	if ok == 0 {
		t.Error("no seed allocated cleanly; the sweep is vacuous")
	}
	t.Logf("ok=%d infeasible=%d", ok, infeasible)
}

// TestReportDeterministic pins the driver's byte-identity contract at
// the library level: the same seed and config produce the same
// marshalled report, run after run.
func TestReportDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		a, err := json.Marshal(Config{}.RunSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(Config{}.RunSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: reports differ:\n%s\n%s", seed, a, b)
		}
	}
}

// findInjectedFinding scans seeds until the injected fault produces a
// finding, returning the seed, its case, and the report.
func findInjectedFinding(t *testing.T, cfg Config, maxSeed int64) (int64, *randgraph.Case, *Report) {
	t.Helper()
	for seed := int64(1); seed <= maxSeed; seed++ {
		cs := randgraph.Generate(seed, cfg.Gen)
		rep := cfg.Run(seed, cs)
		if rep.Status == StatusFinding {
			return seed, cs, rep
		}
	}
	t.Fatalf("no seed in [1, %d] tripped the injected fault", maxSeed)
	return 0, nil, nil
}

// TestInjectedFaultsCaught proves the oracle's recheck stages are live:
// each documented fault kind, planted into a clone of the winning
// binding, must surface as a finding in one of the downstream stages.
func TestInjectedFaultsCaught(t *testing.T) {
	downstream := map[string]bool{
		StageLegality: true, StageCostEval: true,
		StageDpsim: true, StageVsim: true,
	}
	for _, kind := range FaultKinds() {
		t.Run(kind, func(t *testing.T) {
			inject, err := InjectFault(kind)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fastConfig()
			cfg.Inject = inject
			_, _, rep := findInjectedFinding(t, cfg, 40)
			if !downstream[rep.Stage] {
				t.Errorf("fault %q surfaced at stage %q, want a post-allocation recheck stage", kind, rep.Stage)
			}
		})
	}
	if _, err := InjectFault("no-such-fault"); err == nil {
		t.Error("InjectFault accepted an unknown kind")
	}
}

// TestInjectedFaultShrinks is the acceptance criterion for the
// shrinker: a deliberately planted legality bug must not only be
// caught but minimized to a graph of at most 8 operations, and the
// minimized case must still fail at the same stage and replay from its
// JSON dump.
func TestInjectedFaultShrinks(t *testing.T) {
	inject, err := InjectFault("seg-alias")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Inject = inject
	seed, cs, orig := findInjectedFinding(t, cfg, 40)

	min, rep, attempts := cfg.Shrink(seed, cs, 0)
	if rep == nil || rep.Status != StatusFinding {
		t.Fatal("shrink lost the failure")
	}
	if rep.Stage != orig.Stage {
		t.Fatalf("shrink drifted from stage %q to %q", orig.Stage, rep.Stage)
	}
	if ops := min.Graph.NumOps(); ops > 8 {
		t.Errorf("shrunk case still has %d ops, want <= 8", ops)
	}
	if min.Graph.NumOps() > cs.Graph.NumOps() || len(min.Graph.Nodes) > len(cs.Graph.Nodes) {
		t.Error("shrink grew the case")
	}

	info, err := ShrunkInfo(min, rep, attempts)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := cdfg.ParseJSON([]byte(info.GraphJSON))
	if err != nil {
		t.Fatalf("shrunk graph dump does not re-parse: %v", err)
	}
	rc := &randgraph.Case{Graph: replay, Steps: min.Steps, PipelinedMul: min.PipelinedMul, ExtraRegs: min.ExtraRegs}
	if rerun := cfg.Run(seed, rc); rerun.Status != StatusFinding || rerun.Stage != rep.Stage {
		t.Errorf("replayed shrunk case does not reproduce: status=%s stage=%s", rerun.Status, rerun.Stage)
	}
	t.Logf("seed %d shrunk to %d ops / %d nodes in %d attempts: %s",
		seed, min.Graph.NumOps(), len(min.Graph.Nodes), attempts, rep.Detail)
}

// TestShrinkKeepsPassingCase pins Shrink's contract on a non-failing
// input: the case comes back unchanged with a nil report.
func TestShrinkKeepsPassingCase(t *testing.T) {
	cfg := fastConfig()
	var seed int64
	var cs *randgraph.Case
	for seed = 1; ; seed++ {
		cs = randgraph.Generate(seed, cfg.Gen)
		if cfg.Run(seed, cs).Status == StatusOK {
			break
		}
	}
	min, rep, attempts := cfg.Shrink(seed, cs, 0)
	if min != cs || rep != nil || attempts != 0 {
		t.Errorf("Shrink modified a passing case: %p vs %p, rep=%v, attempts=%d", min, cs, rep, attempts)
	}
}

// TestFingerprintDiscriminates checks the fingerprint covers the
// allocation state the determinism stage compares: mutating any
// guarded field of a clone must change the fingerprint.
func TestFingerprintDiscriminates(t *testing.T) {
	b := allocateSeed(t, 1)
	base := Fingerprint(b)
	if base != Fingerprint(b.Clone()) {
		t.Fatal("fingerprint differs between a binding and its clone")
	}
	// Sensitivity only: the mutated clone need not be a legal binding,
	// so plain increments suffice even on one-FU/one-register hardware.
	mutations := map[string]func(*binding.Binding){
		"opfu":   func(m *binding.Binding) { m.OpFU[firstArith(m)]++ },
		"opswap": func(m *binding.Binding) { m.OpSwap[firstArith(m)] = !m.OpSwap[firstArith(m)] },
		"segreg": func(m *binding.Binding) { m.SegReg[0][0]++ },
		"copy":   func(m *binding.Binding) { m.AddCopy(0, 0, (m.SegReg[0][0]+1)%len(m.HW.Regs)) },
	}
	for name, mutate := range mutations {
		m := b.Clone()
		mutate(m)
		if Fingerprint(m) == base {
			t.Errorf("fingerprint blind to %s mutation", name)
		}
	}
}

// firstArith returns the node ID of the first FU-bound operator.
func firstArith(b *binding.Binding) int {
	for i, fu := range b.OpFU {
		if fu >= 0 {
			return i
		}
	}
	panic("binding has no arithmetic nodes")
}

// allocateSeed runs the oracle's allocation (not the recheck stages)
// for one seed and returns the winning extended-model binding.
func allocateSeed(t *testing.T, seed int64) *binding.Binding {
	t.Helper()
	cfg := fastConfig().withDefaults()
	for ; ; seed++ {
		cs := randgraph.Generate(seed, cfg.Gen)
		des, err := salsa.Compile(cs.Graph, salsa.Params{Steps: cs.Steps, PipelinedMultipliers: cs.PipelinedMul, ExtraRegisters: cs.ExtraRegs})
		if err != nil {
			continue
		}
		opts := core.SALSAOptions(seed)
		opts.MaxTrials = cfg.MaxTrials
		opts.MovesPerTrial = cfg.MovesPerTrial
		res, _, err := des.AllocatePortfolio(context.Background(), engine.Restarts(opts, 1), engine.Config{Workers: 1})
		if err != nil {
			continue
		}
		return res.Binding
	}
}
