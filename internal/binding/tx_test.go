package binding

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
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
	b := New(fx.a, fx.hw)
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
	for _, kind := range []string{"setopfu", "flipswap", "setsegreg", "addcopy", "removecopy", "setpass", "unbindpass", "swapunits"} {
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
			b := firstFitOf(t, g, steps, pipelined, extra)
			applied, outcomes := txWalk(t, b, uint64(len(name))*7919, 300)
			if outcomes["commit"] == 0 || outcomes["rollback"] == 0 {
				t.Errorf("walk never committed or rolled back a legal move (tally %v)", outcomes)
			}
			pair := false
			for c := sched.Class(0); c < sched.NumClasses; c++ {
				pair = pair || len(b.HW.FUsOfClass(c)) > 1
			}
			if pair && applied["swapunits"] == 0 {
				t.Errorf("walk never swapped two units (tally %v)", applied)
			}
		})
	}
}

// firstFitOf schedules g in steps with the fewest units and builds the
// first-fit binding over extra registers beyond the minimum.
func firstFitOf(t *testing.T, g *cdfg.Graph, steps int, pipelined bool, extra int) *Binding {
	t.Helper()
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
	return firstFit(t, a, datapath.NewHardware(lim, a.MinRegs+extra, inputs, true))
}

// firstFit builds a legal binding: operators on the lowest free unit of
// their class in (step, node) order, and at every storage step the live
// values, in ID order, in the lowest registers.
func firstFit(t *testing.T, a *lifetime.Analysis, hw *datapath.Hardware) *Binding {
	t.Helper()
	b := New(a, hw)
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
// kept occupancy or segment indexes differ from a from-scratch rebuild
// (CheckOccupancy), or when the transfer list and pass draws the
// indexes serve differ from the binding's own.
func assertOccupancy(t *testing.T, where string, tx *Tx) {
	t.Helper()
	if err := tx.CheckOccupancy(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	b := tx.B()
	if got, want := tx.AppendTransfers(nil), b.Transfers(); !slices.Equal(got, want) {
		t.Fatalf("%s: Tx.AppendTransfers %v, Binding.Transfers %v", where, got, want)
	}
	for i, pb := range b.Passes() {
		if tk, ok := tx.NthPass(i); !ok || tk != pb.TransferKey {
			t.Fatalf("%s: NthPass(%d) = %v, %t, want %v", where, i, tk, ok, pb.TransferKey)
		}
	}
	if tk, ok := tx.NthPass(b.NumPass()); ok {
		t.Fatalf("%s: NthPass past the last binding returned %v", where, tk)
	}
}

// assertSinks fails the test when a cost-table entry differs from its
// sink's contribution in a full evaluation (CheckSinks). The binding
// must evaluate and no dirty sink may await replay.
func assertSinks(t *testing.T, where string, tx *Tx) {
	t.Helper()
	ic, _, err := tx.B().Eval()
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if err := tx.CheckSinks(ic); err != nil {
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
		switch rng.intn(9) {
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
		case 7:
			fus := b.HW.FUsOfClass(sched.Class(rng.intn(int(sched.NumClasses))))
			if len(fus) < 2 {
				return ""
			}
			i, j := rng.intn(len(fus)), rng.intn(len(fus)-1)
			if j >= i {
				j++
			}
			tx.SwapUnits(fus[i], fus[j])
			return "swapunits"
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
			assertSinks(t, fmt.Sprintf("step %d illegal-move rollback", step), tx)
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
			assertSinks(t, fmt.Sprintf("step %d unevaluable rollback", step), tx)
			outcomes["unevaluable"]++
			continue
		}
		ic, want, eerr := b.Eval()
		if eerr != nil {
			t.Fatalf("step %d: DeltaCost succeeded but full Eval fails: %v", step, eerr)
		}
		if delta != want {
			t.Fatalf("step %d: DeltaCost %+v diverges from full Eval %+v", step, delta, want)
		}
		if err := tx.CheckSinks(ic); err != nil {
			t.Fatalf("step %d after DeltaCost: %v", step, err)
		}

		if rng.intn(2) == 0 {
			tx.Commit()
			baseline = delta
			if got := tx.Cost(); got != want {
				t.Fatalf("step %d: cost after commit %+v, want %+v", step, got, want)
			}
			assertOccupancy(t, fmt.Sprintf("step %d commit", step), tx)
			if err := tx.CheckSinks(ic); err != nil {
				t.Fatalf("step %d commit: %v", step, err)
			}
			outcomes["commit"]++
		} else {
			tx.Rollback()
			assertRestored(t, step, b, pre)
			if got := tx.Cost(); got != preCost {
				t.Fatalf("step %d: cost after rollback %+v, want %+v", step, got, preCost)
			}
			assertOccupancy(t, fmt.Sprintf("step %d rollback", step), tx)
			assertSinks(t, fmt.Sprintf("step %d rollback", step), tx)
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

// TestTxSwapUnitsReplaysNothing pins the F1 swap's exactness argument:
// a lone SwapUnits on a clean table marks no sink dirty, yet Cost and
// every cost-table entry equal a full evaluation of the relabeled
// binding, and Rollback restores binding, occupancy and entries.
func TestTxSwapUnitsReplaysNothing(t *testing.T) {
	b := firstFitOf(t, workloads.EWF(), 19, false, 1)
	tx, err := NewTx(b)
	if err != nil {
		t.Fatal(err)
	}
	// Bind one pass-through so the swap also relabels pass bindings.
	ts := b.Transfers()
	occ, err := tx.FUOcc()
	if err != nil {
		t.Fatal(err)
	}
bind:
	for _, tk := range ts {
		for f := range b.HW.FUs {
			if b.FUPassFree(occ, f, b.transferStep(tk), tk) {
				tx.Begin()
				tx.SetPass(tk, f)
				if _, err := tx.DeltaCost(); err != nil {
					t.Fatal(err)
				}
				tx.Commit()
				break bind
			}
		}
	}
	if b.NumPass() != 1 || b.Check() != nil {
		t.Fatalf("fixture drift: no legal pass-through to bind (%d transfers)", len(ts))
	}

	swaps := 0
	for c := sched.Class(0); c < sched.NumClasses; c++ {
		fus := b.HW.FUsOfClass(c)
		for i := range fus {
			for j := i + 1; j < len(fus); j++ {
				pre := takeSnapshot(b)
				where := fmt.Sprintf("swap %s/%s", b.HW.FUs[fus[i]].Name, b.HW.FUs[fus[j]].Name)
				tx.Begin()
				tx.SwapUnits(fus[i], fus[j])
				if len(tx.dirtyList) != 0 {
					t.Fatalf("%s marked %d sinks dirty, want none", where, len(tx.dirtyList))
				}
				if err := b.Check(); err != nil {
					t.Fatalf("%s left an illegal binding: %v", where, err)
				}
				ic, want, err := b.Eval()
				if err != nil {
					t.Fatal(err)
				}
				if got := tx.Cost(); got != want {
					t.Fatalf("%s: Cost %+v, full evaluation %+v", where, got, want)
				}
				if err := tx.CheckSinks(ic); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				assertOccupancy(t, where, tx)
				tx.Rollback()
				assertRestored(t, swaps, b, pre)
				assertOccupancy(t, where+" rollback", tx)
				assertSinks(t, where+" rollback", tx)
				swaps++
			}
		}
	}
	if swaps == 0 {
		t.Fatal("fixture drift: no class has two units")
	}
}

// TestCheckSinksCatchesTradedEntries: two unequal FU-port entries that
// trade places keep the total, so Cost still equals a full evaluation,
// but the per-sink check fails and names the first wrong sink.
func TestCheckSinksCatchesTradedEntries(t *testing.T) {
	b := firstFitOf(t, workloads.EWF(), 19, false, 1)
	tx, err := NewTx(b)
	if err != nil {
		t.Fatal(err)
	}
	ic, want, err := b.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.CheckSinks(ic); err != nil {
		t.Fatalf("clean table: %v", err)
	}
	i, j := -1, -1
	for idx := 1; idx < 2*tx.sinks.FUs && j < 0; idx++ {
		if tx.cost[idx] != tx.cost[0] {
			i, j = 0, idx
		}
	}
	if j < 0 {
		t.Fatal("fixture drift: every FU port has the same entry")
	}
	ci, cj := int(tx.cost[i]), int(tx.cost[j])
	tx.setCost(i, cj)
	tx.setCost(j, ci)
	if got := tx.Cost(); got != want {
		t.Fatalf("traded entries changed Cost to %+v, want %+v", got, want)
	}
	err = tx.CheckSinks(ic)
	if err == nil {
		t.Fatal("CheckSinks passed a table with two traded entries")
	}
	if name := tx.sinks.Sink(i).String(); !strings.Contains(err.Error(), name) {
		t.Fatalf("CheckSinks error %q does not name %s", err, name)
	}
}

// TestTxRegisterConflictMatchesFullEval pins register replay on states
// whose only illegality is a register conflict: a segment moved or
// copied into a register another value holds at that step, or copied
// into its own primary. Check rejects such a state, but full Eval does
// not look for it, so the search never evaluates one. The transaction
// must still agree with a full Eval on it: DeltaCost, every cost-table
// entry, and a Reset onto the state.
func TestTxRegisterConflictMatchesFullEval(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     func() *cdfg.Graph
		steps int
	}{{"ewf", workloads.EWF, 19}, {"dct", workloads.DCT, 12}} {
		t.Run(tc.name, func(t *testing.T) {
			b := firstFitOf(t, tc.g(), tc.steps, false, 1)
			tx, err := NewTx(b)
			if err != nil {
				t.Fatal(err)
			}
			a := b.A
			rng := &walkRNG{x: 20261017}
			evaluated := 0
			for step := 0; step < 200; step++ {
				pre := takeSnapshot(b)
				preCost := tx.Cost()
				occ, err := b.RegOccupancy()
				if err != nil {
					t.Fatalf("step %d: walk left a conflict behind: %v", step, err)
				}
				tx.Begin()
				for n := 1 + rng.intn(2); n > 0; n-- {
					v := lifetime.ValueID(rng.intn(len(a.Values)))
					k := rng.intn(a.Values[v].Len)
					if rng.intn(3) == 0 {
						tx.AddCopy(v, k, b.SegReg[v][k]) // stored twice
						continue
					}
					r := rng.intn(len(b.HW.Regs))
					if h := occ[r][a.Values[v].StepAt(k, a.StorageSteps)]; h == lifetime.NoValue || h == v {
						continue // no other value there: no conflict
					}
					if rng.intn(2) == 0 {
						tx.SetSegReg(v, k, r)
					} else {
						tx.AddCopy(v, k, r)
					}
				}
				where := fmt.Sprintf("step %d", step)
				if _, err := b.RegOccupancy(); err == nil {
					tx.Rollback()
					continue
				}
				if _, err := b.FUOccupancy(); err != nil {
					t.Fatalf("%s: FU occupancy broke: %v", where, err)
				}
				assertOccupancy(t, where, tx)

				ic, want, eerr := b.Eval()
				delta, derr := tx.DeltaCost()
				if (eerr == nil) != (derr == nil) {
					t.Fatalf("%s: DeltaCost error %v, full Eval error %v", where, derr, eerr)
				}
				rtx, rerr := NewTx(b)
				if (eerr == nil) != (rerr == nil) {
					t.Fatalf("%s: Reset error %v, full Eval error %v", where, rerr, eerr)
				}
				if eerr == nil {
					evaluated++
					if delta != want {
						t.Fatalf("%s: DeltaCost %+v, full Eval %+v", where, delta, want)
					}
					if err := tx.CheckSinks(ic); err != nil {
						t.Fatalf("%s after DeltaCost: %v", where, err)
					}
					if got := rtx.Cost(); got != want {
						t.Fatalf("%s: Reset cost %+v, full Eval %+v", where, got, want)
					}
					if err := rtx.CheckSinks(ic); err != nil {
						t.Fatalf("%s after Reset: %v", where, err)
					}
					assertOccupancy(t, where+" Reset", rtx)
				}
				tx.Rollback()
				assertRestored(t, step, b, pre)
				assertOccupancy(t, where+" rollback", tx)
				assertSinks(t, where+" rollback", tx)
				if got := tx.Cost(); got != preCost {
					t.Fatalf("%s: cost after rollback %+v, want %+v", where, got, preCost)
				}
			}
			if evaluated < 20 {
				t.Fatalf("only %d conflicted states evaluated; the test pins nothing", evaluated)
			}
		})
	}
}

// TestCheckOccupancyCatchesStaleIndexes corrupts one entry of each
// segment index in turn — a register's segment bit, a segment's
// transfer count, its transfer bit and its pass bit — and expects
// CheckOccupancy to name the entry. A stale index changes only which
// candidates the movers draw, so no cost check would see it.
func TestCheckOccupancyCatchesStaleIndexes(t *testing.T) {
	b := firstFitOf(t, workloads.EWF(), 19, false, 1)
	tx, err := NewTx(b)
	if err != nil {
		t.Fatal(err)
	}
	// Bind one legal pass-through, so its segment is in every index.
	occ, err := tx.FUOcc()
	if err != nil {
		t.Fatal(err)
	}
	var tk TransferKey
bind:
	for _, tk = range tx.AppendTransfers(nil) {
		for f := range b.HW.FUs {
			if b.FUPassFree(occ, f, b.transferStep(tk), tk) {
				tx.Begin()
				tx.SetPass(tk, f)
				if _, err := tx.DeltaCost(); err != nil {
					t.Fatal(err)
				}
				tx.Commit()
				break bind
			}
		}
	}
	if b.NumPass() != 1 || b.Check() != nil {
		t.Fatal("fixture drift: no legal pass-through to bind")
	}
	assertOccupancy(t, "clean", tx)

	s, r := b.Seg(tk.V, tk.K), tk.ToReg
	name := fmt.Sprintf("segment %d (%s at position %d)", s, b.A.Values[tk.V].Name, tk.K)
	flip := func(set bitset, i int) func() {
		return func() { set.put(i, !set.has(i)) }
	}
	for _, tc := range []struct {
		index   string
		corrupt func()
		want    string
	}{
		{"register", flip(tx.regSegs[r], s), fmt.Sprintf("register index of R%d has %s", r, name)},
		{"register (other)", flip(tx.regSegs[(r+1)%len(b.HW.Regs)], s), fmt.Sprintf("register index of R%d has %s", (r+1)%len(b.HW.Regs), name)},
		{"transfer count", func() { tx.xferN[s]++ }, "transfer count of " + name},
		{"transfer", flip(tx.xferSegs, s), "transfer index has " + name},
		{"pass", flip(tx.passSegs, s), "pass index has " + name},
	} {
		saved := fmt.Sprint(tx.regSegs, tx.xferN, tx.xferSegs, tx.passSegs)
		tc.corrupt()
		err := tx.CheckOccupancy()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s index corrupted: CheckOccupancy = %v, want an error naming %q", tc.index, err, tc.want)
		}
		if err := tx.Reset(b); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(tx.regSegs, tx.xferN, tx.xferSegs, tx.passSegs); got != saved {
			t.Fatalf("Reset after corrupting the %s index did not rebuild the indexes", tc.index)
		}
		assertOccupancy(t, tc.index+" rebuilt", tx)
	}
}

// TestTxSegmentMoveMarksOnlyItsSegment pins the per-segment affected
// set. Value v lives at three positions: position 0 is read by u on
// ALU0, position 2 by w on ALU1, both with swapped operands so each
// reads v through its second port, and the transfer into position 2
// rides a pass-through on ALU1. A register change at position 0 must
// dirty only the registers it moves between, the one port reading
// position 0, and the register holding position 1, whose incoming
// transfer reads position 0: w's ports, the pass unit and the register
// holding position 2 stay clean. A change at position 1 dirties the
// pass unit, which reads position 1, and the register holding position
// 2; moving position 2 out of the pass target strands the pass-through,
// so its unit's port 0 loses a read. Each replay must agree with a
// full evaluation.
func TestTxSegmentMoveMarksOnlyItsSegment(t *testing.T) {
	fx, b := txFixture(t)
	node := func(name string) cdfg.NodeID {
		for i := range fx.g.Nodes {
			if fx.g.Nodes[i].Name == name {
				return cdfg.NodeID(i)
			}
		}
		t.Fatalf("fixture has no node %s", name)
		return cdfg.NoNode
	}
	v, u, w := fx.a.ValueOf[node("v")], fx.a.ValueOf[node("u")], fx.a.ValueOf[node("w")]
	b.OpFU[node("v")], b.OpFU[node("u")], b.OpFU[node("w")] = 0, 0, 1
	b.OpSwap[node("u")], b.OpSwap[node("w")] = true, true
	b.SegReg[v] = []int{0, 1, 2}
	b.SegReg[u][0], b.SegReg[w][0] = 3, 2
	b.SetPass(TransferKey{V: v, K: 2, ToReg: 2}, 1)
	if err := b.Check(); err != nil {
		t.Fatalf("fixture binding illegal: %v", err)
	}
	tx, err := NewTx(b)
	if err != nil {
		t.Fatal(err)
	}
	fuIn := func(f, p int) datapath.Sink { return datapath.Sink{Kind: datapath.SinkFUPort, Index: f, Port: p} }
	regIn := func(r int) datapath.Sink { return datapath.Sink{Kind: datapath.SinkReg, Index: r} }

	for _, step := range []struct {
		name   string
		mutate func()
		want   []datapath.Sink
	}{
		{"SetSegReg at position 0", func() { tx.SetSegReg(v, 0, 3) }, []datapath.Sink{fuIn(0, 1), regIn(0), regIn(1), regIn(3)}},
		{"AddCopy at position 0", func() { tx.AddCopy(v, 0, 0) }, []datapath.Sink{fuIn(0, 1), regIn(0), regIn(1)}},
		{"RemoveCopy at position 0", func() { tx.RemoveCopy(v, 0, 0) }, []datapath.Sink{fuIn(0, 1), regIn(0), regIn(1)}},
		{"SetSegReg at position 1", func() { tx.SetSegReg(v, 1, 0) }, []datapath.Sink{fuIn(1, 0), regIn(0), regIn(1), regIn(2)}},
		{"SetSegReg at position 2", func() { tx.SetSegReg(v, 2, 0) }, []datapath.Sink{fuIn(1, 0), fuIn(1, 1), regIn(0), regIn(2)}},
	} {
		tx.Begin()
		step.mutate()
		dirty := slices.Clone(tx.dirtyList)
		slices.Sort(dirty)
		var got []datapath.Sink
		for _, idx := range dirty {
			got = append(got, tx.sinks.Sink(idx))
		}
		if !slices.Equal(got, step.want) {
			t.Errorf("%s dirtied %v, want %v", step.name, got, step.want)
		}
		if _, err := tx.DeltaCost(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		tx.Commit()
		assertSinks(t, step.name, tx)
		assertOccupancy(t, step.name, tx)
	}
}

// TestTxReplayShortcutsMatchFullEval pins each shortcut of the sink
// replay on a state at its edge. Each case builds a legal binding over
// the txFixture (v at segments 0-2, u at 3, w at 4), makes a move that
// dirties the sinks it names, replays them, and compares every cost
// entry with a full evaluation (CheckSinks). It also checks the named
// entries against the fanins the case expects, so an event a shortcut
// must not lose is one that changes an entry:
//
//   - birth inside a run: R3 holds v's last position and u's position
//     0, consecutive segments. u's birth is not a run start of R3's
//     bits; only the position-0 term replays it. R3's fanin is u's unit
//     and R1, the transfer source.
//   - pass unit beside a plain one: the transfer into v's position 2
//     rides ALU1, and ALU0 carries no pass-through. ALU1's port 0 reads
//     the transfer's source R1 beside w's read of R2; ALU0's port 0
//     reads input x alone.
//   - copy already connected: ALU0's port 0 reads v's position 0 from
//     R0 (u), then position 2 (w), whose primary is R2 and whose copy is
//     R0. Eval picks the copy, so the port's fanin stays x and R0.
func TestTxReplayShortcutsMatchFullEval(t *testing.T) {
	const (
		v, u, w      lifetime.ValueID = 0, 1, 2
		nodeU, nodeW cdfg.NodeID      = 3, 4
		alu0, alu1                    = 0, 1
	)
	fuIn := func(f, p int) datapath.Sink { return datapath.Sink{Kind: datapath.SinkFUPort, Index: f, Port: p} }
	regIn := func(r int) datapath.Sink { return datapath.Sink{Kind: datapath.SinkReg, Index: r} }
	type entry struct {
		sink datapath.Sink
		want int
	}
	for _, tc := range []struct {
		name    string
		setup   func(b *Binding)
		move    func(tx *Tx)
		entries []entry
	}{{
		name:    "birth inside a run",
		setup:   func(b *Binding) { b.SegReg[v][0], b.SegReg[v][1], b.SegReg[v][2], b.SegReg[u][0] = 0, 1, 2, 3 },
		move:    func(tx *Tx) { tx.SetSegReg(v, 2, 3) },
		entries: []entry{{regIn(3), 1}},
	}, {
		name: "pass unit beside a plain one",
		setup: func(b *Binding) {
			b.SegReg[v][0], b.SegReg[v][1], b.SegReg[v][2] = 0, 1, 2
			b.SegReg[u][0], b.SegReg[w][0] = 3, 2
			b.OpFU[nodeW] = alu1
		},
		move: func(tx *Tx) {
			tx.SetPass(TransferKey{V: v, K: 2, ToReg: 2}, alu1)
			tx.FlipSwap(nodeU)
		},
		entries: []entry{{fuIn(alu1, 0), 1}, {fuIn(alu0, 0), 0}},
	}, {
		name: "copy already connected",
		setup: func(b *Binding) {
			b.SegReg[v][0], b.SegReg[v][1], b.SegReg[v][2] = 0, 1, 2
			b.SegReg[u][0], b.SegReg[w][0] = 3, 2
		},
		move:    func(tx *Tx) { tx.AddCopy(v, 2, 0) },
		entries: []entry{{fuIn(alu0, 0), 1}},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			fx, b := txFixture(t)
			if fx.a.ValueOf[nodeU] != u || fx.a.ValueOf[nodeW] != w || fx.a.Values[v].Len != 3 {
				t.Fatal("fixture drift: the case's node and value IDs no longer hold")
			}
			tc.setup(b)
			if err := b.Check(); err != nil {
				t.Fatalf("fixture binding illegal: %v", err)
			}
			tx, err := NewTx(b)
			if err != nil {
				t.Fatal(err)
			}
			assertSinks(t, "fresh Tx", tx)
			tx.Begin()
			tc.move(tx)
			for _, e := range tc.entries {
				if !tx.dirty[tx.sinks.Index(e.sink)] {
					t.Fatalf("the move left %v clean; the case replays nothing there", e.sink)
				}
			}
			if err := b.Check(); err != nil {
				t.Fatalf("the move left an illegal binding: %v", err)
			}
			if _, err := tx.DeltaCost(); err != nil {
				t.Fatal(err)
			}
			assertSinks(t, "after the move", tx)
			for _, e := range tc.entries {
				if got := int(tx.cost[tx.sinks.Index(e.sink)]); got != e.want {
					t.Errorf("entry of %v is %d, want %d", e.sink, got, e.want)
				}
			}
			tx.Commit()
		})
	}
}

// TestTxRegisterRunAcrossWords pins the carry of the register replay's
// run-start mask from one 64-segment word to the next. On the DCT's
// first-fit binding, one value holds segments 63 and 64, consecutive
// positions. Moving the later position into the earlier one's register
// makes a run that crosses the word boundary, so segment 64 is held
// from the previous position and is no transfer. The register's entry
// must still equal a full evaluation.
func TestTxRegisterRunAcrossWords(t *testing.T) {
	b := firstFitOf(t, workloads.DCT(), 12, false, 1)
	tx, err := NewTx(b)
	if err != nil {
		t.Fatal(err)
	}
	for v := range b.A.Values {
		val := &b.A.Values[v]
		for k := 0; k+1 < val.Len; k++ {
			if b.Seg(val.ID, k) != 63 {
				continue
			}
			r := b.SegReg[v][k]
			tx.Begin()
			tx.SetSegReg(val.ID, k+1, r)
			if _, err := tx.DeltaCost(); err != nil {
				t.Fatal(err)
			}
			if !tx.regSegs[r].has(63) || !tx.regSegs[r].has(64) {
				t.Fatalf("R%d does not hold segments 63 and 64", r)
			}
			assertSinks(t, fmt.Sprintf("%s positions %d-%d in R%d", val.Name, k, k+1, r), tx)
			tx.Commit()
			return
		}
	}
	t.Fatal("fixture drift: no value holds segments 63 and 64")
}
