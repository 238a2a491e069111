package rtl

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

func allocate(t *testing.T, g *cdfg.Graph, seed int64) *binding.Binding {
	t.Helper()
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
	o := core.SALSAOptions(seed)
	o.MovesPerTrial = 200
	o.MaxTrials = 4
	res, err := core.Allocate(a, hw, o)
	if err != nil {
		t.Fatal(err)
	}
	return res.Binding
}

func TestEmitBasics(t *testing.T) {
	g := workloads.Tseng()
	b := allocate(t, g, 1)
	nl, err := Emit(b, "tseng_dp")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"module tseng_dp",
		"input  wire                clk",
		"in_a", "in_e",
		"out_o1", "out_o2",
		"endmodule",
		"// controller",
		"functional units",
	} {
		if !strings.Contains(nl.Text, want) {
			t.Errorf("netlist missing %q", want)
		}
	}
	if nl.Regs != len(b.HW.Regs) || nl.FUs != len(b.HW.FUs) {
		t.Errorf("counts drifted: %+v", nl)
	}
}

func TestEmitDeterministic(t *testing.T) {
	g := workloads.FIR8()
	b := allocate(t, g, 2)
	n1, err := Emit(b, "fir")
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Emit(b, "fir")
	if err != nil {
		t.Fatal(err)
	}
	if n1.Text != n2.Text {
		t.Error("Emit is not deterministic")
	}
}

func TestEmitCyclicController(t *testing.T) {
	g := workloads.FIR8()
	b := allocate(t, g, 3)
	nl, err := Emit(b, "fir_dp")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nl.Text, "? 0 : step + 1") {
		t.Error("cyclic design must have a wrapping step counter")
	}
}

func TestEmitRejectsIllegal(t *testing.T) {
	g := workloads.Tseng()
	b := allocate(t, g, 3)
	b.OpFU[5] = -1 // corrupt
	if _, err := Emit(b, "x"); err == nil {
		t.Error("Emit accepted an illegal binding")
	}
}

func TestEmitAllWorkloads(t *testing.T) {
	for name, build := range workloads.All() {
		b := allocate(t, build(), 5)
		nl, err := Emit(b, name+"_dp")
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if nl.Muxes > 0 && nl.MuxInputs < 2*nl.Muxes {
			t.Errorf("%s: merged muxes should each have at least 2 inputs (%d muxes, %d inputs)", name, nl.Muxes, nl.MuxInputs)
		}
		// Every control step appears in the table.
		for st := 0; st < b.A.StorageSteps; st++ {
			if !strings.Contains(nl.Text, "// step ") {
				t.Errorf("%s: control table missing", name)
				break
			}
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 17: 5, 21: 5, 31: 5, 32: 6}
	for n, want := range cases {
		if got := bitsFor(n); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("a b-c.d"); got != "a_b_c_d" {
		t.Errorf("sanitize = %q", got)
	}
}

// TestEmitFunctionalContent checks the functional constructs appear:
// per-step case arms in muxes and ALUs, register enables, multiplier
// operand latches, and signed constant literals.
func TestEmitFunctionalContent(t *testing.T) {
	g := workloads.Diffeq()
	b := allocate(t, g, 3)
	nl, err := Emit(b, "diffeq_dp")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"always @* begin",
		"case (step)",
		"always @(posedge clk) if (rst)", // datapath registers reset, then step-gated loads
		"else if (step ==",
		"_opa", "_opb", // multiplier operand latches
		"assign out_c =",
		"assign out_y_out =",
		"wire signed [31:0]",
	} {
		if !strings.Contains(nl.Text, want) {
			t.Errorf("netlist missing %q", want)
		}
	}
	// The diffeq uses negative coefficients nowhere, but constants 3
	// must appear as sized literals.
	if !strings.Contains(nl.Text, "32'sd3") {
		t.Error("constant operands must be emitted as sized signed literals")
	}
}

// TestEmitPassThroughComment confirms pass-throughs surface in the ALU
// operation select.
func TestEmitPassThroughAppears(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := workloads.EWF()
		b := allocate(t, g, seed)
		if b.NumPass() == 0 {
			continue
		}
		nl, err := Emit(b, "ewf_dp")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(nl.Text, "/* pass ") {
			t.Error("pass-through binding missing from the ALU op select")
		}
		return
	}
	t.Skip("no seed produced a pass-through at this effort")
}
