package experiments

//lint:mutguard:file this file hand-assembles the paper's Figure 3/4 demonstration bindings field by field; every one is binding.Check-validated before use

import (
	"fmt"

	"salsa"
	"salsa/internal/binding"
	"salsa/internal/cdfg"
	"salsa/internal/datapath"
	"salsa/internal/dpsim"
	"salsa/internal/lifetime"
	"salsa/internal/sched"
)

// FigureDemo reports one mechanism demonstration: the interconnect cost
// of the same allocation with and without the extension under study.
type FigureDemo struct {
	Name          string
	Description   string
	BeforeMux     int // equivalent 2-1 muxes without the mechanism
	AfterMux      int // with the mechanism
	BeforeMerged  int
	AfterMerged   int
	Verified      bool
	BeforeOutputs map[string]int64
	AfterOutputs  map[string]int64
}

// figureBase builds a scheduled, analyzed graph with hand-set start
// steps (the figures are about binding, not scheduling).
func figureBase(g *cdfg.Graph, starts map[string]int, steps int) (*lifetime.Analysis, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	d := cdfg.DefaultDelays(false)
	s := &sched.Schedule{G: g, Delays: d, Steps: steps, Start: make([]int, len(g.Nodes))}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		switch {
		case n.Op.IsArith():
			st, ok := starts[n.Name]
			if !ok {
				return nil, fmt.Errorf("no start for %s", n.Name)
			}
			s.Start[i] = st
		case n.Op == cdfg.Output:
			a := n.Args[0]
			s.Start[i] = starts[g.Nodes[a].Name] + d.Of(g.Nodes[a].Op)
		}
	}
	if err := s.Check(nil); err != nil {
		return nil, err
	}
	return lifetime.Analyze(s)
}

func evalBoth(b *binding.Binding) (mux, merged int, err error) {
	ic, cost, err := b.Eval()
	if err != nil {
		return 0, 0, err
	}
	return cost.MuxCost, ic.MergedMuxCost(), nil
}

// Figure3 reproduces the paper's pass-through demonstration: a value
// changes register mid-life; implementing the transfer directly needs a
// new multiplexer input at the destination register, while routing it
// through the idle adder reuses two existing connections and saves the
// multiplexer.
func Figure3() (*FigureDemo, error) {
	g := cdfg.New("figure3")
	x := g.Input("x")
	y := g.Input("y")
	v := g.Add("v", x, y) // @0 -> born 1, lives to step 4
	a := g.Add("a", v, y) // @1, reads v from R2: R2 -> fu.a
	c := g.Add("c", a, y) // @2, reads a from R1: fu -> R1 exists
	z := g.Add("z", v, c) // @4, reads v from R1 after the move
	g.Output("o", z)

	an, err := figureBase(g, map[string]int{"v": 0, "a": 1, "c": 2, "z": 4}, 6)
	if err != nil {
		return nil, err
	}
	hw := datapath.NewHardware(sched.Limits{sched.ClassALU: 1}, 4, []string{"x", "y"}, true)
	b := binding.New(an, hw)
	for i := range g.Nodes {
		if g.Nodes[i].Op.IsArith() {
			b.OpFU[i] = 0
		}
	}
	vid := an.ValueOf[v]
	aid := an.ValueOf[a]
	cid := an.ValueOf[c]
	zid := an.ValueOf[z]
	// v: steps 1-3 in R2, step 4 in R1 (the move of Figure 3).
	b.SegReg[vid][0] = 2
	b.SegReg[vid][1] = 2
	b.SegReg[vid][2] = 2
	b.SegReg[vid][3] = 1
	// a: step 2 in R1 (so fu0 -> R1 already exists).
	b.SegReg[aid][0] = 1
	// c: steps 3-4 in R3; z: step 5 in R0.
	b.SegReg[cid][0] = 3
	b.SegReg[cid][1] = 3
	b.SegReg[zid][0] = 0
	if err := b.Check(); err != nil {
		return nil, fmt.Errorf("figure3 base binding: %w", err)
	}

	demo := &FigureDemo{
		Name: "figure3",
		Description: "transfer of v from R2 to R1 at step 3: direct connection vs " +
			"No-Op pass-through over the idle adder",
	}
	if demo.BeforeMux, demo.BeforeMerged, err = evalBoth(b); err != nil {
		return nil, err
	}
	env := cdfg.Env{"x": 5, "y": 3}
	resBefore, err := dpsim.Run(b, env, 1)
	if err != nil {
		return nil, fmt.Errorf("figure3 direct simulation: %w", err)
	}
	demo.BeforeOutputs = resBefore.Outputs

	// Bind the transfer through the adder (idle during step 3).
	pb := b.Clone()
	pb.SetPass(binding.TransferKey{V: vid, K: 3, ToReg: 1}, 0)
	if err := pb.Check(); err != nil {
		return nil, fmt.Errorf("figure3 pass binding: %w", err)
	}
	if demo.AfterMux, demo.AfterMerged, err = evalBoth(pb); err != nil {
		return nil, err
	}
	resAfter, err := dpsim.Run(pb, env, 1)
	if err != nil {
		return nil, fmt.Errorf("figure3 pass simulation: %w", err)
	}
	demo.AfterOutputs = resAfter.Outputs
	demo.Verified = resBefore.Outputs["o"] == resAfter.Outputs["o"]
	return demo, nil
}

// Figure4 reproduces the value-split demonstration: a value read by
// operators on two different functional units; a copy in a register the
// second unit already reads removes a multiplexer input without adding
// any connection (the copy is loaded from a connection that also
// already exists).
func Figure4() (*FigureDemo, error) {
	g := cdfg.New("figure4")
	x := g.Input("x")
	y := g.Input("y")
	w := g.Add("w", x, y)  // @0 on fu0 -> R2: fu0 -> R2 exists
	bb := g.Add("b", w, y) // @1 on fu1 reads w from R2: R2 -> fu1.a exists
	v := g.Add("v", x, y)  // @1 on fu0 -> R1
	p := g.Add("p", v, y)  // @2 on fu0 reads v from R1
	q := g.Add("q", v, bb) // @3 on fu1 reads v: from R1 (new wire) or from a copy in R2
	g.Output("o1", p)
	g.Output("o2", q)

	an, err := figureBase(g, map[string]int{"w": 0, "b": 1, "v": 1, "p": 2, "q": 3}, 5)
	if err != nil {
		return nil, err
	}
	hw := datapath.NewHardware(sched.Limits{sched.ClassALU: 2}, 5, []string{"x", "y"}, true)
	b := binding.New(an, hw)
	fuOf := map[string]int{"w": 0, "b": 1, "v": 0, "p": 0, "q": 1}
	for i := range g.Nodes {
		if g.Nodes[i].Op.IsArith() {
			b.OpFU[i] = fuOf[g.Nodes[i].Name]
		}
	}
	wid := an.ValueOf[w]
	vid := an.ValueOf[v]
	bid := an.ValueOf[bb]
	pid := an.ValueOf[p]
	qid := an.ValueOf[q]
	b.SegReg[wid][0] = 2 // w: step 1 in R2
	// v: steps 2-3 in R1.
	b.SegReg[vid][0] = 1
	b.SegReg[vid][1] = 1
	// b: steps 2-3 in R3; p: step 3 in R0; q: step 4 in R4.
	b.SegReg[bid][0] = 3
	b.SegReg[bid][1] = 3
	b.SegReg[pid][0] = 0
	b.SegReg[qid][0] = 4
	if err := b.Check(); err != nil {
		return nil, fmt.Errorf("figure4 base binding: %w", err)
	}

	demo := &FigureDemo{
		Name: "figure4",
		Description: "value v read by both ALUs: direct wiring R1→fu1 vs a copy of v " +
			"in R2 that fu1 already reads (loaded over the existing fu0→R2 connection)",
	}
	if demo.BeforeMux, demo.BeforeMerged, err = evalBoth(b); err != nil {
		return nil, err
	}
	env := cdfg.Env{"x": 7, "y": 2}
	resBefore, err := dpsim.Run(b, env, 1)
	if err != nil {
		return nil, fmt.Errorf("figure4 direct simulation: %w", err)
	}
	demo.BeforeOutputs = resBefore.Outputs

	// Split: copies of v in R2 at both live steps (R2 is free once w dies).
	sb := b.Clone()
	sb.AddCopy(vid, 0, 2)
	sb.AddCopy(vid, 1, 2)
	if err := sb.Check(); err != nil {
		return nil, fmt.Errorf("figure4 split binding: %w", err)
	}
	if demo.AfterMux, demo.AfterMerged, err = evalBoth(sb); err != nil {
		return nil, err
	}
	resAfter, err := dpsim.Run(sb, env, 1)
	if err != nil {
		return nil, fmt.Errorf("figure4 split simulation: %w", err)
	}
	demo.AfterOutputs = resAfter.Outputs
	demo.Verified = resBefore.Outputs["o1"] == resAfter.Outputs["o1"] &&
		resBefore.Outputs["o2"] == resAfter.Outputs["o2"]
	return demo, nil
}

// Figure12 allocates the small CDFG of the paper's Figures 1 and 2
// under both binding models (one Row carries both results), showing the
// models side by side on the graph the paper introduces them with.
func Figure12(cfg Config) (Row, error) {
	g := cdfg.New("figure1")
	v1 := g.Input("v1")
	v2 := g.Input("v2")
	v3 := g.Input("v3")
	v4 := g.Input("v4")
	v8 := g.Add("v8", v1, v2)
	v9 := g.Mul("v9", v3, v4)
	v10 := g.Add("v10", v8, v9)
	g.Output("out", v10)
	return runPoint("F1", g, salsa.Params{Steps: g.CriticalPath(cdfg.DefaultDelays(false)) + 1, ExtraRegisters: 1}, cfg)
}

// Demos runs both mechanism demonstrations.
func Demos() ([]*FigureDemo, error) {
	f3, err := Figure3()
	if err != nil {
		return nil, err
	}
	f4, err := Figure4()
	if err != nil {
		return nil, err
	}
	return []*FigureDemo{f3, f4}, nil
}
