package salsa_test

import (
	"strings"
	"testing"

	"salsa"
	"salsa/internal/cdfg"
	"salsa/internal/workloads"
)

func TestCompileAndAllocateFacade(t *testing.T) {
	g := workloads.Tseng()
	des, err := salsa.Compile(g, salsa.Params{ExtraRegisters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if des.Steps() < 3 {
		t.Errorf("Steps = %d, implausible", des.Steps())
	}
	if des.MinRegisters() < 1 {
		t.Errorf("MinRegisters = %d", des.MinRegisters())
	}
	o := salsa.SALSAOptions(1)
	o.MovesPerTrial = 200
	o.MaxTrials = 4
	res, err := des.Allocate(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := des.Verify(res); err != nil {
		t.Fatal(err)
	}
	out, err := des.Simulate(res, salsa.Env{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out["o1"] != (1+2)*(3+4) {
		t.Errorf("o1 = %d, want 21", out["o1"])
	}
	if out["o2"] != ((1+2)-5)+21 {
		t.Errorf("o2 = %d, want 19", out["o2"])
	}
	nl, err := des.EmitRTL(res, "tseng_dp")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nl.Text, "module tseng_dp") {
		t.Error("netlist missing module header")
	}
	if s := salsa.Summary(res); !strings.Contains(s, "muxes") {
		t.Errorf("Summary = %q", s)
	}
}

func TestAllocateBothNeverLoses(t *testing.T) {
	g := workloads.FIR8()
	des, err := salsa.Compile(g, salsa.Params{ExtraRegisters: 1})
	if err != nil {
		t.Fatal(err)
	}
	sres, tres, err := des.AllocateBoth(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tres == nil {
		t.Skip("traditional infeasible at this budget")
	}
	if sres.Cost.Total > tres.Cost.Total {
		t.Errorf("extended (%d) lost to traditional (%d)", sres.Cost.Total, tres.Cost.Total)
	}
}

func TestCompileRejectsInvalidGraph(t *testing.T) {
	g := cdfg.New("broken")
	g.State("sv")
	g.Cyclic = true
	if _, err := salsa.Compile(g, salsa.Params{}); err == nil {
		t.Error("Compile accepted an invalid graph")
	}
}

func TestCompileRejectsSubCriticalSteps(t *testing.T) {
	g := workloads.EWF()
	for _, fds := range []bool{false, true} {
		_, err := salsa.Compile(g, salsa.Params{Steps: 5, ForceDirected: fds})
		if err == nil {
			t.Fatalf("ForceDirected=%t: Compile accepted a schedule below the critical path", fds)
		}
		if got, want := err.Error(), "5 steps is below the critical path (17)"; got != want {
			t.Errorf("ForceDirected=%t: error %q, want %q", fds, got, want)
		}
	}
}

func TestDisablePassHardware(t *testing.T) {
	g := workloads.FIR8()
	des, err := salsa.Compile(g, salsa.Params{ExtraRegisters: 1, DisablePassHardware: true})
	if err != nil {
		t.Fatal(err)
	}
	o := salsa.SALSAOptions(3)
	o.MovesPerTrial = 200
	o.MaxTrials = 4
	res, err := des.Allocate(o, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Binding.NumPass() != 0 {
		t.Error("pass-throughs bound despite DisablePassHardware")
	}
}

func TestForceDirectedParam(t *testing.T) {
	g := workloads.Diffeq()
	des, err := salsa.Compile(g, salsa.Params{Steps: 9, ExtraRegisters: 1, ForceDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	o := salsa.SALSAOptions(4)
	o.MovesPerTrial = 200
	o.MaxTrials = 4
	res, err := des.Allocate(o, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := des.Verify(res); err != nil {
		t.Errorf("FDS-scheduled design failed verification: %v", err)
	}
}

func TestAllocateBothHandlesInfeasibleTraditional(t *testing.T) {
	// EWF at 19 steps with minimum registers: the traditional model
	// cannot color the circular-arc lifetimes, the extended model can.
	g := workloads.EWF()
	des, err := salsa.Compile(g, salsa.Params{Steps: 19})
	if err != nil {
		t.Fatal(err)
	}
	o := salsa.SALSAOptions(2)
	o.MovesPerTrial = 300
	o.MaxTrials = 5
	sres, tres, err := des.AllocateBoth(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tres != nil {
		t.Log("traditional unexpectedly feasible at min registers (ok)")
	}
	if sres == nil {
		t.Fatal("extended model must allocate at minimum registers")
	}
	if err := des.Verify(sres); err != nil {
		t.Errorf("min-register extended allocation failed verification: %v", err)
	}
}
