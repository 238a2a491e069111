// Package library provides a register-transfer component library with
// parameterized area and delay estimates, and an area report for
// finished allocations. The paper's cost function is an abstract
// weighted sum; this library grounds the same comparison in gate
// equivalents so designs of different register/multiplexer mixes can be
// compared in one number — the "more accurately model the actual
// layout" direction of the paper's conclusions.
//
// The numbers are textbook-standard estimates for a generic standard-
// cell process, in NAND2-gate equivalents per bit: a ripple-carry adder
// cell ~7 gates, an array-multiplier cell ~9 gates per bit of the
// second operand, a D-flip-flop ~6 gates, a 2-to-1 multiplexer ~3
// gates. Absolute accuracy is irrelevant; consistency across designs is
// what the comparison needs.
package library

import (
	"fmt"
	"strings"

	"salsa/internal/binding"
	"salsa/internal/sched"
)

// Component describes one library element at a given bit width.
type Component struct {
	Name  string
	Width int
	// Area is in NAND2 gate equivalents.
	Area int
	// Delay is a unitless relative propagation delay (ripple adder at
	// width W ≈ W; used for documentation, not scheduling).
	Delay int
}

// Library holds the process-independent cost model.
type Library struct {
	// Width is the datapath bit width (the paper's benchmarks are
	// conventionally synthesized at 16 bits).
	Width int
}

// Default returns the 16-bit library.
func Default() Library { return Library{Width: 16} }

// Adder returns the ALU component (add/sub with a mode input).
func (l Library) Adder() Component {
	return Component{Name: "alu", Width: l.Width, Area: 8 * l.Width, Delay: l.Width}
}

// Multiplier returns the array multiplier component.
func (l Library) Multiplier() Component {
	return Component{Name: "mul", Width: l.Width, Area: 9 * l.Width * l.Width, Delay: 2 * l.Width}
}

// Register returns the register component.
func (l Library) Register() Component {
	return Component{Name: "reg", Width: l.Width, Area: 6 * l.Width, Delay: 1}
}

// Mux2 returns one equivalent 2-to-1 multiplexer.
func (l Library) Mux2() Component {
	return Component{Name: "mux2", Width: l.Width, Area: 3 * l.Width, Delay: 1}
}

// Report is the gate-equivalent breakdown of one allocation.
type Report struct {
	Width int

	ALUs, Muls, Regs, Mux2s int

	ALUArea, MulArea, RegArea, MuxArea int
	// CtrlArea estimates the controller: a one-hot step register plus
	// one AND-OR term per distinct (signal, step) control point.
	CtrlArea int
	Total    int
}

// Analyze computes the gate-equivalent report for a finished binding.
func Analyze(l Library, b *binding.Binding) (*Report, error) {
	ic, cost, err := b.Eval()
	if err != nil {
		return nil, err
	}
	r := &Report{Width: l.Width}
	for _, f := range b.HW.FUs {
		used := false
		for i, of := range b.OpFU {
			if of == f.ID && b.A.Sched.G.Nodes[i].Op.IsArith() {
				used = true
				break
			}
		}
		if !used {
			for _, pb := range b.Passes() {
				if pb.FU == f.ID {
					used = true
					break
				}
			}
		}
		if !used {
			continue
		}
		if f.Class == sched.ClassMul {
			r.Muls++
		} else {
			r.ALUs++
		}
	}
	r.Regs = cost.RegsUsed
	r.Mux2s = ic.MergedMuxCost()

	r.ALUArea = r.ALUs * l.Adder().Area
	r.MulArea = r.Muls * l.Multiplier().Area
	r.RegArea = r.Regs * l.Register().Area
	r.MuxArea = r.Mux2s * l.Mux2().Area

	// Controller: step counter flops + decode terms. Count control
	// points: register load enables (one per loaded step) and mux
	// selections (one per active step), 2 gates each, plus the counter.
	points := 0
	for _, sink := range ic.Sinks() {
		for t := 0; t < b.A.StorageSteps; t++ {
			if _, ok := ic.NeedOf(sink, t); ok {
				points++
			}
		}
	}
	steps := b.A.Sched.Steps
	r.CtrlArea = 6*bits(steps) + 2*points
	r.Total = r.ALUArea + r.MulArea + r.RegArea + r.MuxArea + r.CtrlArea
	return r, nil
}

func bits(n int) int {
	b := 1
	for (1 << b) <= n {
		b++
	}
	return b
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "area report (%d-bit datapath, NAND2 gate equivalents):\n", r.Width)
	fmt.Fprintf(&sb, "  %-12s %4d x %6d = %7d\n", "ALUs", r.ALUs, safeDiv(r.ALUArea, r.ALUs), r.ALUArea)
	fmt.Fprintf(&sb, "  %-12s %4d x %6d = %7d\n", "multipliers", r.Muls, safeDiv(r.MulArea, r.Muls), r.MulArea)
	fmt.Fprintf(&sb, "  %-12s %4d x %6d = %7d\n", "registers", r.Regs, safeDiv(r.RegArea, r.Regs), r.RegArea)
	fmt.Fprintf(&sb, "  %-12s %4d x %6d = %7d\n", "2-1 muxes", r.Mux2s, safeDiv(r.MuxArea, r.Mux2s), r.MuxArea)
	fmt.Fprintf(&sb, "  %-12s %19s= %7d\n", "controller", "", r.CtrlArea)
	fmt.Fprintf(&sb, "  %-12s %19s= %7d\n", "total", "", r.Total)
	return sb.String()
}

func safeDiv(a, b int) int {
	if b == 0 {
		return 0
	}
	return a / b
}
