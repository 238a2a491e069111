package library

import (
	"strings"
	"testing"

	"salsa/internal/binding"
	"salsa/internal/cdfg"
	"salsa/internal/core"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
	"salsa/internal/workloads"
)

func allocate(t *testing.T, name string, traditional bool) *binding.Binding {
	t.Helper()
	g := workloads.All()[name]()
	d := cdfg.DefaultDelays(false)
	a, lim, err := lifetime.MinFUAnalysis(g, d, g.CriticalPath(d)+2)
	if err != nil {
		t.Fatal(err)
	}
	var inputs []string
	for i := range g.Nodes {
		if g.Nodes[i].Op == cdfg.Input {
			inputs = append(inputs, g.Nodes[i].Name)
		}
	}
	hw := datapath.NewHardware(lim, a.MinRegs+1, inputs, true)
	o := core.SALSAOptions(3)
	o.MovesPerTrial = 300
	o.MaxTrials = 5
	if traditional {
		o.EnableSegments = false
		o.EnablePass = false
		o.EnableSplit = false
	}
	res, err := core.Allocate(a, hw, o)
	if err != nil {
		t.Fatal(err)
	}
	return res.Binding
}

func TestComponents(t *testing.T) {
	l := Default()
	if l.Width != 16 {
		t.Fatalf("default width = %d", l.Width)
	}
	if l.Multiplier().Area <= l.Adder().Area {
		t.Error("a multiplier must dwarf an adder")
	}
	if l.Mux2().Area >= l.Register().Area {
		t.Error("a 2-1 mux must be cheaper than a register")
	}
}

func TestAnalyzeEWF(t *testing.T) {
	b := allocate(t, "ewf", false)
	r, err := Analyze(Default(), b)
	if err != nil {
		t.Fatal(err)
	}
	if r.ALUs < 2 || r.Muls < 1 || r.Regs < 9 {
		t.Errorf("implausible counts: %+v", r)
	}
	if r.Total != r.ALUArea+r.MulArea+r.RegArea+r.MuxArea+r.CtrlArea {
		t.Error("total does not add up")
	}
	if r.MulArea <= r.ALUArea {
		t.Error("multiplier area must dominate on the EWF")
	}
	out := r.String()
	for _, want := range []string{"area report", "multipliers", "controller", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestCompareModels(t *testing.T) {
	trad := allocate(t, "arf", true)
	ext := allocate(t, "arf", false)
	rt, err := Analyze(Default(), trad)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Analyze(Default(), ext)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("arf total area: traditional %d, extended %d", rt.Total, re.Total)
}

func TestAnalyzeCountsIdleUnits(t *testing.T) {
	// An FU with neither ops nor passes must not be billed.
	b := allocate(t, "tseng", false)
	r, err := Analyze(Default(), b)
	if err != nil {
		t.Fatal(err)
	}
	if r.ALUs+r.Muls > len(b.HW.FUs) {
		t.Errorf("billed more FUs than exist")
	}
}
