package binding

import (
	"strings"
	"testing"

	"salsa/internal/cdfg"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
	"salsa/internal/sched"
)

// fixture bundles a scheduled, analyzed graph with hardware.
type fixture struct {
	g  *cdfg.Graph
	s  *sched.Schedule
	a  *lifetime.Analysis
	hw *datapath.Hardware
}

func makeFixture(t *testing.T, g *cdfg.Graph, steps int, lim sched.Limits, regs int) *fixture {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	d := cdfg.DefaultDelays(false)
	s := sched.List(g, d, steps, lim)
	if s == nil {
		t.Fatalf("cannot schedule %s in %d steps under %v", g.Name, steps, lim)
	}
	a, err := lifetime.Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	var inputs []string
	for i := range g.Nodes {
		if g.Nodes[i].Op == cdfg.Input {
			inputs = append(inputs, g.Nodes[i].Name)
		}
	}
	hw := datapath.NewHardware(lim, regs, inputs, true)
	return &fixture{g: g, s: s, a: a, hw: hw}
}

// seqGraph: x,y inputs; a=x+y (step 0); b=a+y (step 1); c=b+x (step 2).
// Single ALU, three steps.
func seqFixture(t *testing.T, regs int) *fixture {
	g := cdfg.New("seq")
	x := g.Input("x")
	y := g.Input("y")
	a := g.Add("a", x, y)
	b := g.Add("b", a, y)
	c := g.Add("c", b, x)
	g.Output("o", c)
	_ = a
	_ = b
	_ = c
	return makeFixture(t, g, 3, sched.Limits{sched.ClassALU: 1}, regs)
}

// bindSeq produces a straightforward legal binding for seqFixture:
// every op on ALU0, value i in register i.
func bindSeq(t *testing.T, fx *fixture) *Binding {
	t.Helper()
	b := New(fx.a, fx.hw)
	for i := range fx.g.Nodes {
		if fx.g.Nodes[i].Op.IsArith() {
			b.OpFU[i] = 0
		}
	}
	for v := range fx.a.Values {
		for k := range b.SegReg[v] {
			b.SegReg[v][k] = v % len(fx.hw.Regs)
		}
	}
	if err := b.Check(); err != nil {
		t.Fatalf("seq binding illegal: %v", err)
	}
	return b
}

func TestEvalBasicCost(t *testing.T) {
	fx := seqFixture(t, 3)
	b := bindSeq(t, fx)
	ic, cost, err := b.Eval()
	if err != nil {
		t.Fatal(err)
	}
	// fu0.a reads x(in0) at 0, a(R0) at 1, b(R1) at 2... with arg order:
	// a=(x,y), b=(a,y), c=(b,x): port0 sources {in0,R0,R1} fanin 3 -> 2 muxes.
	// port1 sources {in1, in1, in0} = {in1,in0} -> 1 mux.
	// R0.in, R1.in, R2.in each only from fu0 -> 0. out from R2 -> 0.
	if cost.MuxCost != 3 {
		t.Errorf("MuxCost = %d, want 3", cost.MuxCost)
	}
	if cost.RegsUsed != 3 {
		t.Errorf("RegsUsed = %d, want 3", cost.RegsUsed)
	}
	if cost.FUsUsed != 1 {
		t.Errorf("FUsUsed = %d, want 1", cost.FUsUsed)
	}
	wantTotal := WfuALU + 3*Wreg + 3*Wmux
	if cost.Total != wantTotal {
		t.Errorf("Total = %d, want %d", cost.Total, wantTotal)
	}
	if ic.MergedMuxCost() > cost.MuxCost {
		t.Error("merged cost exceeds raw cost")
	}
}

func TestOperandSwapChangesCost(t *testing.T) {
	fx := seqFixture(t, 3)
	b := bindSeq(t, fx)
	// Swapping op c (args b,x -> x,b): port0 gets {in0,R0,in0}... i.e.
	// port0 sources {in0, R0, in0} fanin 2, port1 {in1,in1,R1} fanin 2
	// -> 1+1 = 2 muxes: the reverse move pays off.
	var cID cdfg.NodeID = -1
	for i := range fx.g.Nodes {
		if fx.g.Nodes[i].Name == "c" {
			cID = cdfg.NodeID(i)
		}
	}
	b.OpSwap[cID] = true
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
	_, cost, err := b.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if cost.MuxCost != 2 {
		t.Errorf("MuxCost with swap = %d, want 2", cost.MuxCost)
	}
}

func TestSwapOnNonCommutativeRejected(t *testing.T) {
	g := cdfg.New("swapsub")
	x := g.Input("x")
	y := g.Input("y")
	d := g.Sub("d", x, y)
	g.Output("o", d)
	fx := makeFixture(t, g, 1, sched.Limits{sched.ClassALU: 1}, 1)
	b := New(fx.a, fx.hw)
	b.OpFU[d] = 0
	b.SegReg[0][0] = 0
	b.OpSwap[d] = true
	if err := b.Check(); err == nil {
		t.Error("Check accepted operand reverse on subtraction")
	}
}

func TestRegisterConflictDetected(t *testing.T) {
	fx := seqFixture(t, 3)
	b := bindSeq(t, fx)
	// Put value b into R0 where value a still lives at the same step?
	// a: born 1 (add at 0), read at 1; b: born 2, read at 2. a live {1},
	// b live {2}: disjoint, same register is fine.
	b.SegReg[1][0] = b.SegReg[0][0]
	if err := b.Check(); err != nil {
		t.Fatalf("disjoint lifetimes in one register must be legal: %v", err)
	}
	// But c (live step 3) and a copy of b at step 3 in the same register
	// must clash. First verify via direct overlap: move c into R1 where
	// b lives... b live {2}, c live {3}: disjoint again. Use copies to
	// force a clash: copy of b at its step into c's register at c's step
	// is impossible (b not live), so clash two values directly: put a
	// copy of value a at k=0 into R1 and bind value b's segment there
	// at... steps differ. Simplest: same value twice in one register.
	b.AddCopy(0, 0, b.SegReg[0][0])
	if err := b.Check(); err == nil {
		t.Error("Check accepted a value stored twice in the same register")
	}
}

func TestFUOverlapDetected(t *testing.T) {
	g := cdfg.New("par")
	x := g.Input("x")
	y := g.Input("y")
	a := g.Add("a", x, y)
	bn := g.Add("b", y, x)
	s := g.Add("s", a, bn)
	g.Output("o", s)
	fx := makeFixture(t, g, 2, sched.Limits{sched.ClassALU: 2}, 3)
	b := New(fx.a, fx.hw)
	// a and b are both scheduled at step 0; same FU is illegal.
	b.OpFU[a] = 0
	b.OpFU[bn] = 0
	b.OpFU[s] = 0
	for v := range fx.a.Values {
		for k := range b.SegReg[v] {
			b.SegReg[v][k] = v
		}
	}
	if err := b.Check(); err == nil {
		t.Error("Check accepted two concurrent ops on one FU")
	}
	b.OpFU[bn] = 1
	if err := b.Check(); err != nil {
		t.Errorf("legal binding rejected: %v", err)
	}
}

func TestClassMismatchDetected(t *testing.T) {
	g := cdfg.New("mm")
	x := g.Input("x")
	y := g.Input("y")
	m := g.Mul("m", x, y)
	g.Output("o", m)
	fx := makeFixture(t, g, 2, sched.Limits{sched.ClassALU: 1, sched.ClassMul: 1}, 1)
	b := New(fx.a, fx.hw)
	b.OpFU[m] = 0 // ALU instance
	b.SegReg[0][0] = 0
	if err := b.Check(); err == nil {
		t.Error("Check accepted a mul on an ALU")
	}
}

// movingValue builds the Figure-3 scenario: a value that changes
// register mid-life, creating a transfer that can be pass-bound.
//
// v born step 1 (add at step 0), read at step 3 (add at 3): live 1..3.
// We bind segment steps 1,2 to R0 and step 3 to R1: transfer at step 2.
// The ALU is busy at steps 0 and 3 but idle at 1 and 2.
func movingFixture(t *testing.T) (*fixture, *Binding, lifetime.ValueID) {
	g := cdfg.New("move")
	x := g.Input("x")
	y := g.Input("y")
	v := g.Add("v", x, y)
	w := g.Add("w", v, y)
	g.Output("o", w)
	fx := makeFixture(t, g, 4, sched.Limits{sched.ClassALU: 1}, 2)
	// Force w to step 3 so the value idles: List schedules ASAP, so
	// adjust the start by hand and re-analyze.
	fx.s.Start[w] = 3
	fx.s.Start[w+1] = 4 // the Output node
	a, err := lifetime.Analyze(fx.s)
	if err != nil {
		t.Fatal(err)
	}
	fx.a = a
	b := New(fx.a, fx.hw)
	b.OpFU[v] = 0
	b.OpFU[w] = 0
	vid := fx.a.ValueOf[v]
	wid := fx.a.ValueOf[w]
	vv := fx.a.Value(vid)
	if vv.Birth != 1 || vv.Len != 3 {
		t.Fatalf("fixture drift: v birth %d len %d", vv.Birth, vv.Len)
	}
	b.SegReg[vid][0] = 0
	b.SegReg[vid][1] = 0
	b.SegReg[vid][2] = 1
	b.SegReg[wid][0] = 0
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
	return fx, b, vid
}

func TestTransfersEnumerated(t *testing.T) {
	_, b, vid := movingFixture(t)
	ts := b.Transfers()
	if len(ts) != 1 {
		t.Fatalf("Transfers = %v, want exactly 1", ts)
	}
	want := TransferKey{V: vid, K: 2, ToReg: 1}
	if ts[0] != want {
		t.Errorf("transfer = %v, want %v", ts[0], want)
	}
}

func TestPassThroughLegalityAndCost(t *testing.T) {
	_, b, vid := movingFixture(t)
	tk := TransferKey{V: vid, K: 2, ToReg: 1}

	_, direct, err := b.Eval()
	if err != nil {
		t.Fatal(err)
	}
	// Direct: R1.in fed by {fu0? no: R0} -> R1 gets {R0} (1 src) but
	// fu0 writes w into R0... R0.in: {fu0}; R1.in: {R0}; all fanin 1.
	// Reads: fu0.a: v@step0 in... x(in0) at 0; v(R0) at 3? w reads v at
	// step 3 where v sits in R1 -> fu0.a {in0, R1}: 1 mux.
	if direct.MuxCost != 1 {
		t.Fatalf("direct MuxCost = %d, want 1", direct.MuxCost)
	}

	// Bind the transfer through the ALU (idle at step 2).
	b.SetPass(tk, 0)
	if err := b.Check(); err != nil {
		t.Fatalf("pass-through rejected: %v", err)
	}
	_, passed, err := b.Eval()
	if err != nil {
		t.Fatal(err)
	}
	// Pass-through: R1.in now fed by fu0 (already its only source
	// elsewhere? R1.in had {R0}, now {fu0}); fu0.a gains R0 at step 2
	// (already has in0, R1): the connection R0->fu0.a is new but
	// fu0.a already reads R0? fu0.a reads x(in0) at 0 and v@R1 at 3.
	// So pass adds R0 to fu0.a: fanin 3 -> 2 muxes, and R1.in {fu0}:
	// fanin 1 -> 0. Total 2. Here the pass does not pay off; what
	// matters for the test is that both paths evaluate and differ.
	if passed.MuxCost == direct.MuxCost {
		t.Error("pass-through binding did not change interconnect cost")
	}

	// An occupied step must be rejected: rebind the transfer to happen
	// at step 3 by moving the segment switch one step later is not
	// possible here; instead occupy step 2 with a fake op by moving w.
	b2 := b.Clone()
	b2.UnbindPass(tk)
	b2.SetPass(TransferKey{V: vid, K: 2, ToReg: 1}, 0)
	// Move op w to step 2 so the ALU is busy at the transfer step.
	b2.A.Sched.Start[2] = 2 // node index 2 is op v? ensure via name below
	// (direct schedule surgery: find w's node id)
	for i := range b2.A.Sched.G.Nodes {
		if b2.A.Sched.G.Nodes[i].Name == "w" {
			b2.A.Sched.Start[i] = 2
		} else if b2.A.Sched.G.Nodes[i].Name == "v" {
			b2.A.Sched.Start[i] = 0
		}
	}
	if err := b2.Check(); err == nil {
		t.Error("Check accepted pass-through on a busy FU")
	}
	// Restore the shared schedule (movingFixture mutates fx.s in place).
	for i := range b.A.Sched.G.Nodes {
		if b.A.Sched.G.Nodes[i].Name == "w" {
			b.A.Sched.Start[i] = 3
		}
	}
}

func TestPrunePassRemovesStale(t *testing.T) {
	_, b, vid := movingFixture(t)
	tk := TransferKey{V: vid, K: 2, ToReg: 1}
	b.SetPass(tk, 0)
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
	tx, err := NewTx(b)
	if err != nil {
		t.Fatal(err)
	}
	// Move the segment back to R0: the transfer disappears.
	tx.SetSegReg(vid, 2, 0)
	if n := tx.PrunePass(); n != 1 {
		t.Errorf("PrunePass = %d, want 1", n)
	}
	if err := b.Check(); err != nil {
		t.Errorf("binding still illegal after prune: %v", err)
	}
}

func TestCopiesServeReads(t *testing.T) {
	// Figure-4 flavor: one value read by two ops on different FUs in
	// different steps; a copy lets the second read come from another
	// register.
	g := cdfg.New("copy")
	x := g.Input("x")
	y := g.Input("y")
	v := g.Add("v", x, y) // step 0, born 1
	p := g.Add("p", v, y) // step 1
	q := g.Add("q", v, x) // step 2 (forced below)
	g.Output("o1", p)
	g.Output("o2", q)
	fx := makeFixture(t, g, 3, sched.Limits{sched.ClassALU: 2}, 4)
	fx.s.Start[q] = 2
	for i := range g.Nodes {
		if g.Nodes[i].Op == cdfg.Output && g.Nodes[i].Args[0] == q {
			fx.s.Start[i] = 3
		}
	}
	a, err := lifetime.Analyze(fx.s)
	if err != nil {
		t.Fatal(err)
	}
	fx.a = a
	b := New(fx.a, fx.hw)
	b.OpFU[v] = 0
	b.OpFU[p] = 0
	b.OpFU[q] = 1
	vid := fx.a.ValueOf[v]
	for id := range fx.a.Values {
		for k := range b.SegReg[id] {
			b.SegReg[id][k] = id
		}
	}
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
	_, before, err := b.Eval()
	if err != nil {
		t.Fatal(err)
	}
	// Add a copy of v in R3 over its whole life; reads prefer existing
	// connections, so behaviour must stay legal and evaluable.
	vv := fx.a.Value(vid)
	for k := 0; k < vv.Len; k++ {
		b.AddCopy(vid, k, 3)
	}
	if err := b.Check(); err != nil {
		t.Fatalf("copy binding illegal: %v", err)
	}
	_, after, err := b.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if after.RegsUsed != before.RegsUsed+1 {
		t.Errorf("copy did not use a new register: %d -> %d", before.RegsUsed, after.RegsUsed)
	}
	// Remove the copies again.
	for k := 0; k < vv.Len; k++ {
		if !b.RemoveCopy(vid, k, 3) {
			t.Fatalf("RemoveCopy failed at k=%d", k)
		}
	}
	if b.NumCopies() != 0 {
		t.Errorf("NumCopies = %d, want 0", b.NumCopies())
	}
	_, restored, err := b.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if restored.Total != before.Total {
		t.Errorf("remove-copy did not restore cost: %d vs %d", restored.Total, before.Total)
	}
}

func TestCloneIsDeep(t *testing.T) {
	fx := seqFixture(t, 3)
	b := bindSeq(t, fx)
	b.AddCopy(0, 0, 2)
	nb := b.Clone()
	nb.OpFU[2] = -1
	nb.SegReg[0][0] = 99
	nb.AddCopy(0, 0, 1)
	nb.SetPass(TransferKey{V: 1, K: 0, ToReg: 0}, 0)
	if b.OpFU[2] == -1 || b.SegReg[0][0] == 99 {
		t.Error("Clone shares slices with the original")
	}
	if len(b.CopiesAt(0, 0)) != 1 {
		t.Error("Clone shares Copies with the original")
	}
	if b.NumPass() != 0 || len(b.PassesAt(1, 0)) != 0 {
		t.Error("Clone shares Pass with the original")
	}
}

func TestUnboundDetected(t *testing.T) {
	fx := seqFixture(t, 3)
	b := New(fx.a, fx.hw)
	if err := b.Check(); err == nil {
		t.Error("Check accepted unbound ops")
	}
	if _, _, err := b.Eval(); err == nil {
		t.Error("Eval accepted unbound ops")
	}
	if err := b.Check(); err != nil && !strings.Contains(err.Error(), "no FU") && !strings.Contains(err.Error(), "unassigned") && !strings.Contains(err.Error(), "outside budget") {
		t.Logf("note: error text %q", err)
	}
}
