package binding

import (
	"fmt"
	"reflect"
	"testing"

	"salsa/internal/cdfg"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
	"salsa/internal/randgraph"
	"salsa/internal/sched"
	"salsa/internal/workloads"
)

// walkRNG is the repo's LCG, so the random walk below replays from its
// seed without math/rand.
type walkRNG struct{ x uint64 }

func (r *walkRNG) next() uint64 {
	r.x = r.x*6364136223846793005 + 1442695040888963407
	return r.x >> 16
}

func (r *walkRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// txFixture: two ALUs, four registers, a value (v) alive for three
// steps — so segment moves create transfers, transfers can be
// pass-bound, and op rebinding has a real choice of unit.
//
//	v = x+y (step 0, born 1); u = v+x (step 1); w = v+y (forced step 3).
func txFixture(t *testing.T) (*fixture, *Binding) {
	t.Helper()
	g := cdfg.New("txwalk")
	x := g.Input("x")
	y := g.Input("y")
	v := g.Add("v", x, y)
	u := g.Add("u", v, x)
	w := g.Add("w", v, y)
	g.Output("ou", u)
	g.Output("ow", w)
	fx := makeFixture(t, g, 4, sched.Limits{sched.ClassALU: 2}, 4)
	for i := range g.Nodes {
		switch g.Nodes[i].Name {
		case "v":
			fx.s.Start[i] = 0
		case "u":
			fx.s.Start[i] = 1
		case "w":
			fx.s.Start[i] = 3
		case "ou":
			fx.s.Start[i] = 2
		case "ow":
			fx.s.Start[i] = 4
		}
	}
	a, err := lifetime.Analyze(fx.s)
	if err != nil {
		t.Fatal(err)
	}
	fx.a = a
	b := New(fx.a, fx.hw, DefaultConfig())
	for i := range g.Nodes {
		if g.Nodes[i].Op.IsArith() {
			b.OpFU[i] = 0
		}
	}
	for id := range fx.a.Values {
		for k := range b.SegReg[id] {
			b.SegReg[id][k] = id % len(fx.hw.Regs)
		}
	}
	if err := b.Check(); err != nil {
		t.Fatalf("tx fixture binding illegal: %v", err)
	}
	vid := fx.a.ValueOf[v]
	if vv := fx.a.Value(vid); vv.Len < 3 {
		t.Fatalf("fixture drift: value v has chain length %d, want >= 3", vv.Len)
	}
	return fx, b
}

// snapshot is the mutable binding state a rollback must restore.
type txSnapshot struct {
	opFU   []int
	opSwap []bool
	segReg [][]int
	copies [][]int
	pass   [][]PassTo
}

func takeSnapshot(b *Binding) txSnapshot {
	nb := b.Clone()
	return txSnapshot{nb.OpFU, nb.OpSwap, nb.SegReg, nb.Copies, nb.Pass}
}

func assertRestored(t *testing.T, step int, b *Binding, want txSnapshot) {
	t.Helper()
	got := txSnapshot{b.OpFU, b.OpSwap, b.SegReg, b.Copies, b.Pass}
	if !reflect.DeepEqual(got.opFU, want.opFU) {
		t.Fatalf("step %d: rollback left OpFU %v, want %v", step, got.opFU, want.opFU)
	}
	if !reflect.DeepEqual(got.opSwap, want.opSwap) {
		t.Fatalf("step %d: rollback left OpSwap %v, want %v", step, got.opSwap, want.opSwap)
	}
	if !reflect.DeepEqual(got.segReg, want.segReg) {
		t.Fatalf("step %d: rollback left SegReg %v, want %v", step, got.segReg, want.segReg)
	}
	if !reflect.DeepEqual(got.copies, want.copies) {
		t.Fatalf("step %d: rollback left Copies %v, want %v", step, got.copies, want.copies)
	}
	if !reflect.DeepEqual(got.pass, want.pass) {
		t.Fatalf("step %d: rollback left Pass %v, want %v", step, got.pass, want.pass)
	}
}

// TestTxRandomWalkMatchesFullEval is the incremental-binding property
// test: a seeded walk drives every Tx mutator — including illegal
// mutations the engine's movers would never emit — and checks, at every
// step, the contracts the search depends on:
//
//   - DeltaCost on a legal state equals a full Eval of the same state,
//     term by term (the affected-set replay misses nothing);
//   - Rollback restores the exact pre-move binding AND cost tables,
//     whether the move was legal, illegal, or unevaluable;
//   - the incrementally kept occupancy equals a from-scratch rebuild
//     after every mutation, Commit and Rollback (assertOccupancy).
func TestTxRandomWalkMatchesFullEval(t *testing.T) {
	_, b := txFixture(t)
	applied, outcomes := txWalk(t, b, 20260808, 400)

	// The walk must actually have exercised every mutator and every
	// outcome; a degenerate seed would silently gut the test.
	for _, kind := range []string{"setopfu", "flipswap", "setsegreg", "addcopy", "removecopy", "setpass", "unbindpass"} {
		if applied[kind] == 0 {
			t.Errorf("random walk never applied %s (tally %v)", kind, applied)
		}
	}
	for _, out := range []string{"commit", "rollback", "illegal"} {
		if outcomes[out] == 0 {
			t.Errorf("random walk never hit outcome %s (tally %v)", out, outcomes)
		}
	}
}

// TestTxOccupancyOracle runs the seeded walk on the benchmark and
// generated graphs the search meets: the EWF, the DCT and three random
// scheduled CDFGs, each from a first-fit legal binding.
func TestTxOccupancyOracle(t *testing.T) {
	cases := map[string]func() (*cdfg.Graph, int, bool, int){
		"ewf": func() (*cdfg.Graph, int, bool, int) { return workloads.EWF(), 19, false, 1 },
		"dct": func() (*cdfg.Graph, int, bool, int) { return workloads.DCT(), 12, false, 1 },
	}
	for _, seed := range []int64{3, 4, 5} {
		seed := seed
		cases[fmt.Sprintf("rand%d", seed)] = func() (*cdfg.Graph, int, bool, int) {
			cs := randgraph.Generate(seed, randgraph.Params{})
			return cs.Graph, cs.Steps, cs.PipelinedMul, cs.ExtraRegs + 1
		}
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			g, steps, pipelined, extra := build()
			a, lim, err := lifetime.MinFUAnalysis(g, cdfg.DefaultDelays(pipelined), steps)
			if err != nil {
				t.Fatal(err)
			}
			var inputs []string
			for i := range g.Nodes {
				if g.Nodes[i].Op == cdfg.Input {
					inputs = append(inputs, g.Nodes[i].Name)
				}
			}
			b := firstFit(t, a, datapath.NewHardware(lim, a.MinRegs+extra, inputs, true))
			_, outcomes := txWalk(t, b, uint64(len(name))*7919, 300)
			if outcomes["commit"] == 0 || outcomes["rollback"] == 0 {
				t.Errorf("walk never committed or rolled back a legal move (tally %v)", outcomes)
			}
		})
	}
}

// firstFit builds a legal binding: operators on the lowest free unit of
// their class in (step, node) order, and at every storage step the live
// values, in ID order, in the lowest registers.
func firstFit(t *testing.T, a *lifetime.Analysis, hw *datapath.Hardware) *Binding {
	t.Helper()
	b := New(a, hw, DefaultConfig())
	s := a.Sched
	busy := make([][]bool, len(hw.FUs))
	for f := range busy {
		busy[f] = make([]bool, s.Steps)
	}
	for st := 0; st < s.Steps; st++ {
		for i := range s.G.Nodes {
			n := &s.G.Nodes[i]
			if !n.Op.IsArith() || s.Start[i] != st {
				continue
			}
			for _, f := range hw.FUsOfClass(sched.ClassOf(n.Op)) {
				ii := s.Delays.IIOf(n.Op)
				free := true
				for tt := st; tt < st+ii; tt++ {
					free = free && !busy[f][tt]
				}
				if free {
					b.OpFU[i] = f
					for tt := st; tt < st+ii; tt++ {
						busy[f][tt] = true
					}
					break
				}
			}
		}
	}
	next := make([]int, a.StorageSteps)
	for v := range a.Values {
		for k := range b.SegReg[v] {
			step := a.Values[v].StepAt(k, a.StorageSteps)
			b.SegReg[v][k] = next[step]
			next[step]++
		}
	}
	if err := b.Check(); err != nil {
		t.Fatalf("first-fit binding illegal: %v", err)
	}
	return b
}

// assertOccupancy fails the test when the transaction's incrementally
// kept occupancy differs from a from-scratch rebuild (CheckOccupancy).
func assertOccupancy(t *testing.T, where string, tx *Tx) {
	t.Helper()
	if err := tx.CheckOccupancy(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
}

// txWalk drives a seeded random walk of Tx mutations over b, checking
// the delta, rollback and occupancy contracts at every step, and
// returns the tallies of applied mutators and move outcomes.
func txWalk(t *testing.T, b *Binding, seed uint64, steps int) (applied, outcomes map[string]int) {
	t.Helper()
	tx, err := NewTx(b)
	if err != nil {
		t.Fatal(err)
	}
	_, baseline, err := b.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if got := tx.Cost(); got != baseline {
		t.Fatalf("fresh Tx cost %+v, want the full Eval %+v", got, baseline)
	}
	assertOccupancy(t, "fresh Tx", tx)

	var arith []cdfg.NodeID
	g := b.A.Sched.G
	for i := range g.Nodes {
		if g.Nodes[i].Op.IsArith() {
			arith = append(arith, cdfg.NodeID(i))
		}
	}
	nF, nR := len(b.HW.FUs), len(b.HW.Regs)
	values := b.A.Values
	rng := &walkRNG{x: seed}

	// One random mutation; returns the kind applied (for the coverage
	// tally) or "" when the pick was a no-op on the current state.
	mutate := func() string {
		switch rng.intn(8) {
		case 0:
			tx.SetOpFU(arith[rng.intn(len(arith))], rng.intn(nF))
			return "setopfu"
		case 1:
			tx.FlipSwap(arith[rng.intn(len(arith))])
			return "flipswap"
		case 2:
			vid := lifetime.ValueID(rng.intn(len(values)))
			k := rng.intn(values[vid].Len)
			tx.SetSegReg(vid, k, rng.intn(nR))
			return "setsegreg"
		case 3:
			vid := lifetime.ValueID(rng.intn(len(values)))
			k := rng.intn(values[vid].Len)
			tx.AddCopy(vid, k, rng.intn(nR))
			return "addcopy"
		case 4:
			vid := lifetime.ValueID(rng.intn(len(values)))
			k := rng.intn(values[vid].Len)
			if tx.RemoveCopy(vid, k, rng.intn(nR)) {
				return "removecopy"
			}
			return ""
		case 5:
			ts := b.Transfers()
			if len(ts) == 0 {
				return ""
			}
			tx.SetPass(ts[rng.intn(len(ts))], rng.intn(nF))
			return "setpass"
		case 6:
			keys := b.Passes()
			if len(keys) == 0 {
				return ""
			}
			if tx.UnbindPass(keys[rng.intn(len(keys))].TransferKey) {
				return "unbindpass"
			}
			return ""
		default:
			if tx.PrunePass() > 0 {
				return "prunepass"
			}
			return ""
		}
	}

	applied = map[string]int{}
	outcomes = map[string]int{}
	for step := 0; step < steps; step++ {
		pre := takeSnapshot(b)
		preCost := baseline
		tx.Begin()
		moved := false
		for n := 1 + rng.intn(2); n > 0; n-- {
			if kind := mutate(); kind != "" {
				applied[kind]++
				moved = true
				assertOccupancy(t, fmt.Sprintf("step %d after %s", step, kind), tx)
			}
		}
		if !moved {
			tx.Rollback()
			continue
		}

		if cerr := b.Check(); cerr != nil {
			// Illegal state: the engine would never evaluate it, but the
			// undo log must still unwind it exactly.
			tx.Rollback()
			assertRestored(t, step, b, pre)
			assertOccupancy(t, fmt.Sprintf("step %d illegal-move rollback", step), tx)
			if got := tx.Cost(); got != preCost {
				t.Fatalf("step %d: cost after illegal-move rollback %+v, want %+v", step, got, preCost)
			}
			outcomes["illegal"]++
			continue
		}

		delta, derr := tx.DeltaCost()
		if derr != nil {
			// DeltaCost promises to fail exactly when full Eval would.
			if _, _, eerr := b.Eval(); eerr == nil {
				t.Fatalf("step %d: DeltaCost failed (%v) but full Eval succeeds", step, derr)
			}
			tx.Rollback()
			assertRestored(t, step, b, pre)
			assertOccupancy(t, fmt.Sprintf("step %d unevaluable rollback", step), tx)
			outcomes["unevaluable"]++
			continue
		}
		_, want, eerr := b.Eval()
		if eerr != nil {
			t.Fatalf("step %d: DeltaCost succeeded but full Eval fails: %v", step, eerr)
		}
		if delta != want {
			t.Fatalf("step %d: DeltaCost %+v diverges from full Eval %+v", step, delta, want)
		}

		if rng.intn(2) == 0 {
			tx.Commit()
			baseline = delta
			if got := tx.Cost(); got != want {
				t.Fatalf("step %d: cost after commit %+v, want %+v", step, got, want)
			}
			assertOccupancy(t, fmt.Sprintf("step %d commit", step), tx)
			outcomes["commit"]++
		} else {
			tx.Rollback()
			assertRestored(t, step, b, pre)
			if got := tx.Cost(); got != preCost {
				t.Fatalf("step %d: cost after rollback %+v, want %+v", step, got, preCost)
			}
			assertOccupancy(t, fmt.Sprintf("step %d rollback", step), tx)
			outcomes["rollback"]++
		}
	}

	// After the walk the incremental tables still agree with a fresh
	// full evaluation — no drift accumulated across the walk.
	_, final, err := b.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if got := tx.Cost(); got != final {
		t.Fatalf("post-walk Tx cost %+v, want %+v", got, final)
	}
	return applied, outcomes
}

// TestTxResetReseedsFromCurrentState: Reset on a mutated binding must
// rebuild the use counts and cost table so Cost matches a full Eval —
// the per-restart entry point the search relies on.
func TestTxResetReseedsFromCurrentState(t *testing.T) {
	_, b := txFixture(t)
	tx, err := NewTx(b)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate outside any move, as a restart would hand the Tx a
	// rearranged binding.
	tx.Begin()
	tx.SetOpFU(3, 1) // node u
	tx.AddCopy(0, 0, 3)
	tx.Commit()
	if err := b.Check(); err != nil {
		t.Fatalf("rearranged binding illegal: %v", err)
	}
	if err := tx.Reset(b); err != nil {
		t.Fatal(err)
	}
	_, want, err := b.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if got := tx.Cost(); got != want {
		t.Fatalf("cost after Reset %+v, want full Eval %+v", got, want)
	}
}

// TestTxPrunePassRollsBack: the transactional PrunePass logs its
// removals, so rejecting the surrounding move restores the pass
// bindings it pruned.
func TestTxPrunePassRollsBack(t *testing.T) {
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
	// Move the segment home: the transfer disappears, the pass binding
	// goes stale, and PrunePass inside the move removes it.
	tx.Begin()
	tx.SetSegReg(vid, 2, 0)
	if n := tx.PrunePass(); n != 1 {
		t.Fatalf("PrunePass = %d, want 1", n)
	}
	if _, ok := b.PassOf(tk); ok {
		t.Fatal("stale pass binding survived PrunePass")
	}
	tx.Rollback()
	if f, ok := b.PassOf(tk); !ok || f != 0 {
		t.Fatalf("rollback did not restore the pruned pass binding: %v %t", f, ok)
	}
	if b.SegReg[vid][2] != 1 {
		t.Fatalf("rollback did not restore the segment move: reg %d, want 1", b.SegReg[vid][2])
	}
	if err := b.Check(); err != nil {
		t.Fatalf("binding illegal after rollback: %v", err)
	}
}
