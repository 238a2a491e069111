package binding

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"salsa/internal/cdfg"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
	"salsa/internal/sched"
)

// ErrOccupancyConflict is returned by a transaction's occupancy probes
// while two claims share a register or FU cell, a segment has no
// register within the budget, or an operator has no unit of its class.
// Binding.RegOccupancy and Binding.FUOccupancy name the offending pair.
var ErrOccupancyConflict = errors.New("binding: occupancy conflict")

// Tx is a move transaction over one Binding: the move layer mutates the
// binding in place through Tx's typed mutators, each of which appends an
// undo record, keeps the register and FU occupancy tables current, and
// marks the interconnect sinks it perturbs (the affected-set).
// DeltaCost then recomputes only the dirty sinks — replaying their
// use-events exactly as Eval would — and Rollback restores the binding,
// the occupancy and the cost tables of a rejected move.
//
// The equivalence delta == full Eval holds because Eval's greedy source
// resolution is sink-local: pickHolder only ever queries the net of the
// sink currently being extended, so a sink's final fanin is a function
// of the ordered use-events targeting that sink alone. A mutator marks
// every sink whose event sequence its change can alter; unmarked sinks
// keep their event sequences and therefore their exact fanins.
type Tx struct {
	b *Binding
	// cost holds each sink's mux contribution, max(fanin − 1, 0),
	// indexed by sinks, and muxCost their sum: the binding's
	// pre-merging equivalent 2-to-1 multiplexer count. Only setCost
	// writes them, so every overwrite can be journaled.
	sinks   datapath.SinkSpace
	cost    []int32
	muxCost int
	ns      datapath.NetScratch

	// fuArith and fuPass count, per FU, the bound operators and
	// pass-throughs making it "used"; regCnt counts segments (primary
	// and copies) per register. The derived terms mirror costOf.
	fuArith, fuPass []int
	regCnt          []int
	fusUsed         int
	fuArea          int
	regsUsed        int

	dirty     []bool
	dirtyList []int

	undo     []undoRec
	costUndo []costRec
	inMove   bool

	// occ (register × storage step) and fuocc (FU × step) are the
	// occupancy tables, kept current by every mutator and by revert.
	// Each cell has a claim count (occN, issueN, writeN, passN) and a
	// holder: the holder starts at the empty marker and accumulates
	// each claimant's ID+1, so it names the sole claimant whenever the
	// count is at most one, including after a conflict clears.
	occ                   [][]lifetime.ValueID
	occN                  [][]int32
	fuocc                 FUOccupancy
	issueN, writeN, passN [][]int32
	// regBad counts register claims outside the budget (unassigned
	// segments included) and fuBad operators without a unit of their
	// class; regClash, issueClash and passClash count the claims beyond
	// the first on shared cells. All zero ⇔ the from-scratch
	// occupancy builders succeed.
	regBad, regClash             int
	fuBad, issueClash, passClash int

	// fuOps lists, per FU, the arithmetic nodes bound to it in node
	// order. The rows are carved from one backing array with room for
	// every arithmetic node, so rebinding never reallocates them.
	fuOps [][]cdfg.NodeID

	// Read tables, built once per analysis (an): arith lists the
	// arithmetic nodes in node order, opReads resolves each one's two
	// operand reads (indexed by node and argument), outReads each output
	// port's read, births each value's birth write, and segs names each
	// segment Seg(v, k). segReads lists the operand and output reads of
	// every segment in rows: segment s's reads, in the order above, are
	// segReads[readAt[s]:readAt[s+1]]. pos0 holds the segments at chain
	// position 0.
	an       *lifetime.Analysis
	arith    []cdfg.NodeID
	opReads  [][2]slotRead
	outReads []slotRead
	births   []birthWrite
	segs     []segRef
	segReads []segRead
	readAt   []int32
	pos0     bitset

	// Segment indexes, kept current by every mutator and by revert
	// through claimSeg and claimPass. regSegs[r] holds the segments
	// register r holds (primary or copy); xferN counts each segment's
	// incoming transfers — its entries in Binding.AppendTransfers — and
	// xferSegs holds the segments with any; passSegs holds the segments
	// carrying pass bindings.
	regSegs  []bitset
	xferN    []int
	xferSegs bitset
	passSegs bitset
}

// slotRead is one operand or output read at step, resolved once per
// analysis: chain position k of value v, segment seg, whose holder the
// replay picks, or, when v is NoValue, the fixed source src (a constant
// or an external input) or the error err that resolving the read
// reports.
type slotRead struct {
	v    lifetime.ValueID
	k    int
	seg  int
	step int
	src  datapath.Source
	err  error
}

// birthWrite is one value's birth write: its step and the external
// input loading it, or -1 when its producer's unit does.
type birthWrite struct {
	step, input int
	producer    cdfg.NodeID
}

// segRef names one segment: its value, chain position and storage step.
type segRef struct {
	v    lifetime.ValueID
	k    int
	step int
}

// segRead is one read of a segment: argument arg of arithmetic node op,
// or output port arg when op is NoNode.
type segRead struct {
	op  cdfg.NodeID
	arg int
}

type undoOp int

const (
	undoOpFU undoOp = iota
	undoSwap
	undoSwapUnits
	undoSegReg
	undoAddCopy
	undoRemoveCopy
	undoSetPass
	undoNewPass
	undoDelPass
)

// undoRec is one reversible mutation. The integer operands are
// interpreted per op; tk only applies to the pass records.
type undoRec struct {
	op         undoOp
	a, b, c, d int
	tk         TransferKey
}

// costRec remembers one sink's pre-move contribution overwritten by
// DeltaCost or SwapUnits.
type costRec struct {
	idx int
	old int
}

// NewTx builds a transaction over b, evaluating it once to seed the
// cost tables.
func NewTx(b *Binding) (*Tx, error) {
	t := &Tx{}
	if err := t.Reset(b); err != nil {
		return nil, err
	}
	return t, nil
}

// B returns the binding under transaction.
func (t *Tx) B() *Binding { return t.b }

// Reset re-seeds the transaction from b's current state: use counts
// and occupancy are recomputed and every sink's cost is replayed. The
// search calls it once per trial restart, so its cost amortizes over
// the trial's moves.
func (t *Tx) Reset(b *Binding) error {
	t.b = b
	t.ensureShape()
	t.seedOcc()
	t.undo = t.undo[:0]
	t.costUndo = t.costUndo[:0]
	for _, idx := range t.dirtyList {
		t.dirty[idx] = false
	}
	t.dirtyList = t.dirtyList[:0]
	t.inMove = false

	for f := range t.fuArith {
		t.fuArith[f], t.fuPass[f] = 0, 0
		t.fuOps[f] = t.fuOps[f][:0]
	}
	for r := range t.regCnt {
		t.regCnt[r] = 0
	}
	t.fusUsed, t.fuArea, t.regsUsed = 0, 0, 0
	for _, op := range t.arith {
		if f := b.OpFU[op]; f >= 0 {
			t.incArith(f)
			t.fuOps[f] = append(t.fuOps[f], op)
		}
	}
	for _, ps := range b.Pass {
		for _, p := range ps {
			t.incPass(p.FU)
		}
	}
	for i := range b.SegReg {
		for _, r := range b.SegReg[i] {
			if r >= 0 {
				t.incReg(r)
			}
		}
	}
	for _, cs := range b.Copies {
		for _, r := range cs {
			t.incReg(r)
		}
	}

	clear(t.cost)
	t.muxCost = 0
	if t.regBad > 0 || t.fuBad > 0 {
		// Sink replay never visits an unassigned segment or an unbound
		// operator, so only the full evaluation reports those.
		ic, _, err := b.Eval()
		if err != nil {
			return err
		}
		for idx := range t.cost {
			if fan := ic.FaninOf(t.sinks.Sink(idx)); fan > 1 {
				t.setCost(idx, fan-1)
			}
		}
		return nil
	}
	for idx := range t.cost {
		c, err := t.replaySink(idx)
		if err != nil {
			return err
		}
		t.setCost(idx, c)
	}
	return nil
}

// ensureShape sizes the reusable tables to the binding's hardware and
// schedule dimensions, reallocating only when they changed.
func (t *Tx) ensureShape() {
	b := t.b
	nF, nR := len(b.HW.FUs), len(b.HW.Regs)
	if sp := b.sinks(); t.cost == nil || t.sinks != sp {
		t.sinks = sp
		t.cost = make([]int32, sp.Len())
		t.dirty = make([]bool, sp.Len())
		t.dirtyList = t.dirtyList[:0]
		t.fuArith = make([]int, nF)
		t.fuPass = make([]int, nF)
		t.regCnt = make([]int, nR)
	}
	if ss := b.A.StorageSteps; len(t.occ) != nR || (nR > 0 && len(t.occ[0]) != ss) {
		t.occ = grid[lifetime.ValueID](nR, ss)
		t.occN = grid[int32](nR, ss)
	}
	if T := b.A.Sched.Steps; len(t.fuocc.Issue) != nF || (nF > 0 && len(t.fuocc.Issue[0]) != T) {
		t.fuocc = newFUOccupancy(nF, T)
		t.issueN = grid[int32](nF, T)
		t.writeN = grid[int32](nF, T)
		t.passN = grid[int32](nF, T)
	}
	if t.an != b.A {
		t.buildReads()
	}
	if nA := len(t.arith); len(t.fuOps) != nF || (nF > 0 && cap(t.fuOps[0]) != nA) {
		t.fuOps = grid[cdfg.NodeID](nF, nA)
	}
	if nS := len(t.segs); len(t.regSegs) != nR || len(t.xferN) != nS {
		t.regSegs = newBitsets(nR, nS)
		t.xferN = make([]int, nS)
		sets := newBitsets(2, nS)
		t.xferSegs, t.passSegs = sets[0], sets[1]
	}
}

// buildReads builds the read tables of the binding's analysis. Each
// read resolves as Eval's operandSource does, short of picking the
// holder, which depends on the binding.
func (t *Tx) buildReads() {
	b := t.b
	a := b.A
	g, s := a.Sched.G, a.Sched
	t.an = a
	t.arith = t.arith[:0]
	t.opReads = make([][2]slotRead, len(g.Nodes))
	for i := range g.Nodes {
		if n := &g.Nodes[i]; n.Op.IsArith() {
			t.arith = append(t.arith, cdfg.NodeID(i))
			for arg := range t.opReads[i] {
				t.opReads[i][arg] = t.resolveRead(n.Args[arg], s.Start[i])
			}
		}
	}
	t.outReads = make([]slotRead, b.numOutputs)
	for n, idx := range b.outputIndex {
		if idx >= 0 {
			step := s.Start[n]
			if g.Cyclic {
				step %= s.Steps
			}
			t.outReads[idx] = t.resolveRead(g.Nodes[n].Args[0], step)
		}
	}
	t.births = make([]birthWrite, len(a.Values))
	t.segs = make([]segRef, 0, b.NumSegs())
	for i := range a.Values {
		v := &a.Values[i]
		t.births[i] = birthWrite{step: a.WriteStep(v), input: -1, producer: v.Producer}
		if g.Nodes[v.Producer].Op == cdfg.Input {
			t.births[i].input = b.inputIndex[v.Producer]
		}
		for k := 0; k < v.Len; k++ {
			t.segs = append(t.segs, segRef{v: v.ID, k: k, step: v.StepAt(k, a.StorageSteps)})
		}
	}

	// Per-segment reads, as rows of one backing array. readAt[s+1]
	// first counts segment s's reads, and a prefix sum turns the counts
	// into row starts. Filling advances each readAt[s] to its row's
	// end, which is where the next row starts, so a shift by one
	// restores the starts.
	visit := func(add func(seg int, r segRead)) {
		for _, op := range t.arith {
			for arg, rd := range t.opReads[op] {
				if rd.v != lifetime.NoValue {
					add(rd.seg, segRead{op: op, arg: arg})
				}
			}
		}
		for out, rd := range t.outReads {
			if rd.v != lifetime.NoValue {
				add(rd.seg, segRead{op: cdfg.NoNode, arg: out})
			}
		}
	}
	n := len(t.segs)
	t.pos0 = make(bitset, (n+63)>>6)
	for s := range t.segs {
		t.pos0.put(s, t.segs[s].k == 0)
	}
	t.readAt = make([]int32, n+1)
	visit(func(seg int, _ segRead) { t.readAt[seg+1]++ })
	for seg := range n {
		t.readAt[seg+1] += t.readAt[seg]
	}
	t.segReads = make([]segRead, t.readAt[n])
	visit(func(seg int, r segRead) {
		t.segReads[t.readAt[seg]] = r
		t.readAt[seg]++
	})
	copy(t.readAt[1:], t.readAt[:n])
	t.readAt[0] = 0
}

// resolveRead resolves a read of node arg at step: a constant, an
// external input, or a chain position of a storage value.
func (t *Tx) resolveRead(arg cdfg.NodeID, step int) slotRead {
	b := t.b
	an := &b.A.Sched.G.Nodes[arg]
	rd := slotRead{v: lifetime.NoValue, step: step}
	switch vid := b.A.ValueOf[arg]; {
	case an.Op == cdfg.Const:
		rd.src = datapath.Source{Kind: datapath.SrcConst, Index: int(arg)}
	case an.Op == cdfg.Input && vid == lifetime.NoValue:
		rd.src = datapath.Source{Kind: datapath.SrcInput, Index: b.inputIndex[arg]}
	case vid == lifetime.NoValue:
		rd.err = fmt.Errorf("binding: node %s is not a storage value", an.Name)
	default:
		v := &b.A.Values[vid]
		k, ok := v.LiveAt(step, b.A.StorageSteps)
		if !ok {
			rd.err = fmt.Errorf("binding: %s read at step %d outside live range", v.Name, step)
			break
		}
		rd.v, rd.k, rd.seg = vid, k, b.Seg(vid, k)
	}
	return rd
}

// seedOcc rebuilds the occupancy tables, conflict counters and segment
// indexes from the binding, claim by claim.
func (t *Tx) seedOcc() {
	b := t.b
	for r := range t.occ {
		for s := range t.occ[r] {
			t.occ[r][s], t.occN[r][s] = lifetime.NoValue, 0
		}
	}
	for f := range t.fuocc.Issue {
		for s := range t.fuocc.Issue[f] {
			t.fuocc.Issue[f][s], t.issueN[f][s] = cdfg.NoNode, 0
			t.fuocc.WriteEdge[f][s], t.writeN[f][s] = false, 0
			t.fuocc.PassAt[f][s], t.passN[f][s] = NoTransfer, 0
		}
	}
	for r := range t.regSegs {
		clear(t.regSegs[r])
	}
	clear(t.passSegs)
	t.regBad, t.regClash = 0, 0
	t.fuBad, t.issueClash, t.passClash = 0, 0, 0
	for s := range t.segs {
		v, k := t.segs[s].v, t.segs[s].k
		t.claimReg(s, b.SegReg[v][k], 1, true)
		for _, c := range b.Copies[s] {
			t.claimReg(s, c, 1, true)
		}
		t.xferN[s] = b.numTransfersAt(v, k)
		t.xferSegs.put(s, t.xferN[s] > 0)
		for _, p := range b.Pass[s] {
			t.claimPass(TransferKey{v, k, p.Reg}, p.FU, 1)
		}
	}
	for _, op := range t.arith {
		t.claimOp(op, b.OpFU[op], 1)
	}
}

// claimCell applies one claim (d = +1) or withdrawal (d = -1) to a
// cell's count and returns the change in the cell's surplus claims.
func claimCell(n *int32, d int32) int {
	old := *n
	*n = old + d
	if (d > 0 && old > 0) || (d < 0 && old > 1) {
		return int(d)
	}
	return 0
}

// claimSeg adds (d = +1) or withdraws (d = -1) the claim of value v's
// chain position k on register r, once the binding shows the change,
// and keeps the segment indexes current. A register holds a segment
// while any of the segment's holder entries names it, which the
// binding's short holder list tells, so no per-(register, segment)
// claim count is stored.
func (t *Tx) claimSeg(v lifetime.ValueID, k, r int, d int32) {
	b := t.b
	s := b.Seg(v, k)
	// The entry is a transfer unless r held the previous position.
	if k > 0 && !b.HeldIn(v, k-1, r) {
		t.addXfers(s, int(d))
	}
	// When r starts or stops holding (v, k), the entries of (v, k+1)
	// naming r stop or start being transfers.
	n := b.holdCount(v, k, r)
	if held, was := n > 0, n > int(d); held != was && k+1 < b.A.Values[v].Len {
		next := b.holdCount(v, k+1, r)
		if held {
			next = -next
		}
		t.addXfers(s+1, next)
	}
	t.claimReg(s, r, d, n > 0)
}

// claimReg applies segment s's claim change on register r to the
// register occupancy and sets r's bit for s to held.
func (t *Tx) claimReg(s, r int, d int32, held bool) {
	if r < 0 || r >= len(t.occ) {
		t.regBad += int(d)
		return
	}
	sg := &t.segs[s]
	t.regClash += claimCell(&t.occN[r][sg.step], d)
	t.occ[r][sg.step] += lifetime.ValueID(d) * (sg.v + 1)
	t.regSegs[r].put(s, held)
}

// addXfers adds n to segment s's incoming-transfer count.
func (t *Tx) addXfers(s, n int) {
	t.xferN[s] += n
	t.xferSegs.put(s, t.xferN[s] > 0)
}

// claimOp adds or withdraws arithmetic node op's claims on unit f: its
// issue window and its result-write edge.
func (t *Tx) claimOp(op cdfg.NodeID, f int, d int32) {
	b := t.b
	n := &b.A.Sched.G.Nodes[op]
	if f < 0 || f >= len(b.HW.FUs) || b.HW.FUs[f].Class != sched.ClassOf(n.Op) {
		t.fuBad += int(d)
		return
	}
	s := b.A.Sched
	st := s.Start[op]
	for step := st; step < st+s.Delays.IIOf(n.Op); step++ {
		t.issueClash += claimCell(&t.issueN[f][step], d)
		t.fuocc.Issue[f][step] += cdfg.NodeID(d) * (op + 1)
	}
	w := st + s.Delays.Of(n.Op) - 1
	t.writeN[f][w] += d
	t.fuocc.WriteEdge[f][w] = t.writeN[f][w] > 0
}

// claimPass adds or withdraws the claim of a pass-through of tk on f.
// The binding must already show the change, from which the segment's
// pass bit is re-derived.
func (t *Tx) claimPass(tk TransferKey, f int, d int32) {
	s := t.b.Seg(tk.V, tk.K)
	t.passSegs.put(s, len(t.b.Pass[s]) > 0)
	step, ok := t.b.passStep(tk, f)
	if !ok {
		return
	}
	t.passClash += claimCell(&t.passN[f][step], d)
	at := &t.fuocc.PassAt[f][step]
	at.V += lifetime.ValueID(d) * (tk.V + 1)
	at.K += int(d) * tk.K
	at.ToReg += int(d) * tk.ToReg
}

// Begin opens a move: the undo log and cost journal restart empty.
func (t *Tx) Begin() {
	t.undo = t.undo[:0]
	t.costUndo = t.costUndo[:0]
	t.inMove = true
}

// Commit accepts the move: the in-place state and updated cost tables
// become the new baseline and the dirty set is retired.
func (t *Tx) Commit() {
	t.inMove = false
	t.undo = t.undo[:0]
	t.costUndo = t.costUndo[:0]
	for _, idx := range t.dirtyList {
		t.dirty[idx] = false
	}
	t.dirtyList = t.dirtyList[:0]
}

// Rollback rejects the move: cost entries overwritten by DeltaCost or
// SwapUnits are restored from the journal and the binding mutations
// are unwound in reverse order, re-adjusting the use counts and
// occupancy symmetrically.
func (t *Tx) Rollback() {
	t.inMove = false
	for i := len(t.costUndo) - 1; i >= 0; i-- {
		cu := t.costUndo[i]
		t.setCost(cu.idx, cu.old)
	}
	t.costUndo = t.costUndo[:0]
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.revert(&t.undo[i])
	}
	t.undo = t.undo[:0]
	for _, idx := range t.dirtyList {
		t.dirty[idx] = false
	}
	t.dirtyList = t.dirtyList[:0]
}

// revert unwinds one undo record.
func (t *Tx) revert(u *undoRec) {
	b := t.b
	switch u.op {
	case undoOpFU:
		op := cdfg.NodeID(u.a)
		t.rebindOp(op, b.OpFU[op], u.b)
	case undoSwap:
		b.OpSwap[u.a] = !b.OpSwap[u.a]
	case undoSwapUnits:
		t.swapUnits(u.a, u.b)
	case undoSegReg:
		v, k := lifetime.ValueID(u.a), u.b
		t.moveSeg(v, k, b.SegReg[v][k], u.c)
	case undoAddCopy:
		v, k, r := lifetime.ValueID(u.a), u.b, u.c
		b.removeCopyAt(b.Seg(v, k), u.d)
		t.decReg(r)
		t.claimSeg(v, k, r, -1)
	case undoRemoveCopy:
		v, k, r := lifetime.ValueID(u.a), u.b, u.c
		b.insertCopyAt(b.Seg(v, k), u.d, r)
		t.incReg(r)
		t.claimSeg(v, k, r, 1)
	case undoSetPass:
		cur, _ := b.SetPass(u.tk, u.a)
		t.decPass(cur)
		t.claimPass(u.tk, cur, -1)
		t.incPass(u.a)
		t.claimPass(u.tk, u.a, 1)
	case undoNewPass:
		f, _ := b.UnbindPass(u.tk)
		t.decPass(f)
		t.claimPass(u.tk, f, -1)
	case undoDelPass:
		b.SetPass(u.tk, u.a)
		t.incPass(u.a)
		t.claimPass(u.tk, u.a, 1)
	}
}

func (t *Tx) record(u undoRec) {
	if t.inMove {
		t.undo = append(t.undo, u)
	}
}

// --- use-count maintenance (mirrors costOf's used sets) ---

func (t *Tx) fuWeight(f int) int {
	if t.b.HW.FUs[f].Class == sched.ClassMul {
		return WfuMul
	}
	return WfuALU
}

func (t *Tx) incArith(f int) {
	if t.fuArith[f]+t.fuPass[f] == 0 {
		t.fusUsed++
		t.fuArea += t.fuWeight(f)
	}
	t.fuArith[f]++
}

func (t *Tx) decArith(f int) {
	t.fuArith[f]--
	if t.fuArith[f]+t.fuPass[f] == 0 {
		t.fusUsed--
		t.fuArea -= t.fuWeight(f)
	}
}

func (t *Tx) incPass(f int) {
	if t.fuArith[f]+t.fuPass[f] == 0 {
		t.fusUsed++
		t.fuArea += t.fuWeight(f)
	}
	t.fuPass[f]++
}

func (t *Tx) decPass(f int) {
	t.fuPass[f]--
	if t.fuArith[f]+t.fuPass[f] == 0 {
		t.fusUsed--
		t.fuArea -= t.fuWeight(f)
	}
}

func (t *Tx) incReg(r int) {
	if t.regCnt[r] == 0 {
		t.regsUsed++
	}
	t.regCnt[r]++
}

func (t *Tx) decReg(r int) {
	t.regCnt[r]--
	if t.regCnt[r] == 0 {
		t.regsUsed--
	}
}

// --- affected-set marking ---

// markIdx marks the sink of index idx; -1 names no sink.
func (t *Tx) markIdx(idx int) {
	if idx < 0 || t.dirty[idx] {
		return
	}
	t.dirty[idx] = true
	t.dirtyList = append(t.dirtyList, idx)
}

// mark marks sink s, unless it lies outside the hardware.
func (t *Tx) mark(s datapath.Sink) { t.markIdx(t.sinks.Index(s)) }

func (t *Tx) markReg(r int) {
	if r >= 0 {
		t.mark(datapath.Sink{Kind: datapath.SinkReg, Index: r})
	}
}

func (t *Tx) markFUPorts(f int) {
	if f >= 0 {
		t.mark(datapath.Sink{Kind: datapath.SinkFUPort, Index: f})
		t.mark(datapath.Sink{Kind: datapath.SinkFUPort, Index: f, Port: 1})
	}
}

// markBirth marks the registers loaded at a value's birth — the sinks
// seeing the producer FU as a source.
func (t *Tx) markBirth(v lifetime.ValueID) {
	if v == lifetime.NoValue {
		return
	}
	t.markReg(t.b.SegReg[v][0])
	for _, c := range t.b.CopiesAt(v, 0) {
		t.markReg(c)
	}
}

// markSeg marks every sink whose event sequence can depend on the
// holder set of segment (v, k), beyond the registers that joined or
// left it, which the caller marks:
//
//   - the reads of (v, k): one FU input port per operand read, the
//     argument flipped by OpSwap, and the output ports;
//   - the registers holding (v, k+1): each receives a transfer into
//     (v, k+1) unless it holds (v, k), and a direct transfer reads
//     (v, k);
//   - port 0 of the pass units on transfers into (v, k), which stay
//     live only while their target holds (v, k), and into (v, k+1),
//     which read (v, k).
func (t *Tx) markSeg(v lifetime.ValueID, k int) {
	b := t.b
	s := b.Seg(v, k)
	for _, rd := range t.segReads[t.readAt[s]:t.readAt[s+1]] {
		if rd.op == cdfg.NoNode {
			t.mark(datapath.Sink{Kind: datapath.SinkOutput, Index: rd.arg})
			continue
		}
		if f := b.OpFU[rd.op]; f >= 0 {
			port := rd.arg
			if b.OpSwap[rd.op] {
				port = 1 - port
			}
			t.mark(datapath.Sink{Kind: datapath.SinkFUPort, Index: f, Port: port})
		}
	}
	for _, p := range b.Pass[s] {
		t.mark(datapath.Sink{Kind: datapath.SinkFUPort, Index: p.FU})
	}
	if k+1 < b.A.Values[v].Len {
		t.markReg(b.SegReg[v][k+1])
		for _, c := range b.Copies[s+1] {
			t.markReg(c)
		}
		for _, p := range b.Pass[s+1] {
			t.markIdx(2 * p.FU)
		}
	}
}

// --- mutators ---

// SetOpFU rebinds arithmetic node op to FU f (moves F1/F2).
func (t *Tx) SetOpFU(op cdfg.NodeID, f int) {
	b := t.b
	old := b.OpFU[op]
	if old == f {
		return
	}
	t.record(undoRec{op: undoOpFU, a: int(op), b: old})
	t.rebindOp(op, old, f)
	t.markFUPorts(old)
	t.markFUPorts(f)
	t.markBirth(b.A.ValueOf[op])
}

// rebindOp moves op from unit old to unit f, keeping the use counts,
// the FU occupancy and the units' operator lists current.
func (t *Tx) rebindOp(op cdfg.NodeID, old, f int) {
	if old >= 0 {
		t.decArith(old)
	}
	if f >= 0 {
		t.incArith(f)
	}
	if t.b.A.Sched.G.Nodes[op].Op.IsArith() {
		t.claimOp(op, old, -1)
		t.claimOp(op, f, 1)
		if old >= 0 {
			i, _ := slices.BinarySearch(t.fuOps[old], op)
			t.fuOps[old] = slices.Delete(t.fuOps[old], i, i+1)
		}
		if f >= 0 {
			i, _ := slices.BinarySearch(t.fuOps[f], op)
			t.fuOps[f] = slices.Insert(t.fuOps[f], i, op)
		}
	}
	t.b.OpFU[op] = f
}

// SwapUnits exchanges the complete bindings of two units of one class
// (move F1): their operators and pass-throughs trade units, and so do
// their occupancy rows, use counts, operator lists and input-port cost
// entries. It journals one undo record and marks no sink dirty, because
// the exchange is a pure relabeling that keeps every sink's fanin:
//
//   - each unit's input ports see the other's events in the same order,
//     since operands come from registers, constants or inputs;
//   - a register sink's FU sources map one to one, so its distinct
//     sources and its per-step conflicts stay as they were;
//   - output ports read no unit;
//   - the used-unit count and area stay, as both units weigh the same.
//
// Pass-capability depends on the class alone, so the swap leaves every
// pass-through exactly as legal as it was. The one case needing replay
// is a port an earlier mutation of the same move left dirty while its
// counterpart on the other unit is clean: the stale entry moves with
// the trade, so both are marked.
func (t *Tx) SwapUnits(f1, f2 int) {
	if f1 == f2 {
		return
	}
	u1, u2 := &t.b.HW.FUs[f1], &t.b.HW.FUs[f2]
	if u1.Class != u2.Class || u1.CanPass != u2.CanPass {
		panic(fmt.Sprintf("binding: SwapUnits of unlike units %s and %s", u1.Name, u2.Name))
	}
	t.record(undoRec{op: undoSwapUnits, a: f1, b: f2})
	for p := 0; p < 2; p++ {
		i1 := t.sinks.Index(datapath.Sink{Kind: datapath.SinkFUPort, Index: f1, Port: p})
		i2 := t.sinks.Index(datapath.Sink{Kind: datapath.SinkFUPort, Index: f2, Port: p})
		if t.dirty[i1] != t.dirty[i2] {
			t.markIdx(i1)
			t.markIdx(i2)
		}
		if c1, c2 := int(t.cost[i1]), int(t.cost[i2]); c1 != c2 {
			t.costUndo = append(t.costUndo, costRec{idx: i1, old: c1}, costRec{idx: i2, old: c2})
			t.setCost(i1, c2)
			t.setCost(i2, c1)
		}
	}
	t.swapUnits(f1, f2)
}

// swapUnits relabels units f1 and f2 throughout the binding and trades
// their per-unit transaction state; applied twice it is the identity,
// so it also undoes SwapUnits.
func (t *Tx) swapUnits(f1, f2 int) {
	b := t.b
	for _, op := range t.fuOps[f1] {
		b.OpFU[op] = f2
	}
	for _, op := range t.fuOps[f2] {
		b.OpFU[op] = f1
	}
	for n, s := t.fuPass[f1]+t.fuPass[f2], t.passSegs.next(0); n > 0; s = t.passSegs.next(s + 1) {
		for i := range b.Pass[s] {
			switch p := &b.Pass[s][i]; p.FU {
			case f1:
				p.FU, n = f2, n-1
			case f2:
				p.FU, n = f1, n-1
			}
		}
	}
	t.fuOps[f1], t.fuOps[f2] = t.fuOps[f2], t.fuOps[f1]
	t.fuArith[f1], t.fuArith[f2] = t.fuArith[f2], t.fuArith[f1]
	t.fuPass[f1], t.fuPass[f2] = t.fuPass[f2], t.fuPass[f1]
	swapRows(t.fuocc.Issue, f1, f2)
	swapRows(t.fuocc.WriteEdge, f1, f2)
	swapRows(t.fuocc.PassAt, f1, f2)
	swapRows(t.issueN, f1, f2)
	swapRows(t.writeN, f1, f2)
	swapRows(t.passN, f1, f2)
}

// swapRows exchanges two rows of a table.
func swapRows[T any](g [][]T, i, j int) { g[i], g[j] = g[j], g[i] }

// FlipSwap reverses the operand order of commutative node op (move F3).
func (t *Tx) FlipSwap(op cdfg.NodeID) {
	b := t.b
	t.record(undoRec{op: undoSwap, a: int(op)})
	b.OpSwap[op] = !b.OpSwap[op]
	t.markFUPorts(b.OpFU[op])
}

// SetSegReg moves value v's chain position k to register r.
func (t *Tx) SetSegReg(v lifetime.ValueID, k, r int) {
	b := t.b
	old := b.SegReg[v][k]
	if old == r {
		return
	}
	t.record(undoRec{op: undoSegReg, a: int(v), b: k, c: old})
	t.moveSeg(v, k, old, r)
	t.markReg(old)
	t.markReg(r)
	t.markSeg(v, k)
}

// moveSeg moves the primary register of (v, k) from one register to
// another, keeping the use counts and the register occupancy current.
func (t *Tx) moveSeg(v lifetime.ValueID, k, from, to int) {
	if from >= 0 {
		t.decReg(from)
	}
	if to >= 0 {
		t.incReg(to)
	}
	t.b.SegReg[v][k] = to
	t.claimSeg(v, k, from, -1)
	t.claimSeg(v, k, to, 1)
}

// AddCopy stores a copy of (v, k) in register r (move R5).
func (t *Tx) AddCopy(v lifetime.ValueID, k, r int) {
	b := t.b
	t.record(undoRec{op: undoAddCopy, a: int(v), b: k, c: r, d: len(b.CopiesAt(v, k))})
	b.AddCopy(v, k, r)
	t.incReg(r)
	t.claimSeg(v, k, r, 1)
	t.markReg(r)
	t.markSeg(v, k)
}

// RemoveCopy deletes the copy of (v, k) in register r (move R6),
// reporting whether it existed.
func (t *Tx) RemoveCopy(v lifetime.ValueID, k, r int) bool {
	b := t.b
	for i, c := range b.CopiesAt(v, k) {
		if c != r {
			continue
		}
		t.record(undoRec{op: undoRemoveCopy, a: int(v), b: k, c: r, d: i})
		b.removeCopyAt(b.Seg(v, k), i)
		t.decReg(r)
		t.claimSeg(v, k, r, -1)
		t.markReg(r)
		t.markSeg(v, k)
		return true
	}
	return false
}

// SetPass binds transfer tk to pass-capable FU f (move F4).
func (t *Tx) SetPass(tk TransferKey, f int) {
	b := t.b
	old, existed := b.PassOf(tk)
	if existed && old == f {
		return
	}
	b.SetPass(tk, f)
	if existed {
		t.record(undoRec{op: undoSetPass, a: old, tk: tk})
		t.decPass(old)
		t.claimPass(tk, old, -1)
		t.markIdx(2 * old)
	} else {
		t.record(undoRec{op: undoNewPass, tk: tk})
	}
	t.incPass(f)
	t.claimPass(tk, f, 1)
	t.markIdx(2 * f)
	t.markReg(tk.ToReg)
}

// UnbindPass removes the pass-through binding of tk (move F5),
// reporting whether it existed.
func (t *Tx) UnbindPass(tk TransferKey) bool {
	f, ok := t.b.UnbindPass(tk)
	if !ok {
		return false
	}
	t.record(undoRec{op: undoDelPass, a: f, tk: tk})
	t.decPass(f)
	t.claimPass(tk, f, -1)
	t.markIdx(2 * f)
	t.markReg(tk.ToReg)
	return true
}

// PrunePass removes pass-through bindings whose transfer no longer
// exists or whose FU is no longer free — called after register or FU
// moves invalidate them — with undo logging and dirty marking. It
// visits only the segments carrying pass bindings and returns the
// number pruned.
func (t *Tx) PrunePass() int {
	b := t.b
	if b.nPass == 0 {
		return 0
	}
	occ, err := t.FUOcc()
	if err != nil {
		// Leave pruning to Check; occupancy conflicts are a bug upstream.
		return 0
	}
	n := 0
	for s := t.passSegs.next(0); s >= 0; s = t.passSegs.next(s + 1) {
		sg := &t.segs[s]
		for i := 0; i < len(b.Pass[s]); {
			p := b.Pass[s][i]
			tk := TransferKey{sg.v, sg.k, p.Reg}
			if b.isTransfer(tk) && b.FUPassFree(occ, p.FU, b.transferStep(tk), tk) {
				i++
				continue
			}
			t.UnbindPass(tk)
			n++
		}
	}
	return n
}

// AppendTransfers appends Binding.AppendTransfers' list to dst and
// returns it, visiting only the segments with incoming transfers.
func (t *Tx) AppendTransfers(dst []TransferKey) []TransferKey {
	b := t.b
	for s := t.xferSegs.next(0); s >= 0; s = t.xferSegs.next(s + 1) {
		dst = b.appendTransfersAt(dst, t.segs[s].v, t.segs[s].k)
	}
	return dst
}

// NthPass returns the i-th pass-through binding in ascending
// transfer-key order, the order the dense layout stores them in, and
// whether there is one. It visits only the segments carrying pass
// bindings.
func (t *Tx) NthPass(i int) (TransferKey, bool) {
	for s := t.passSegs.next(0); s >= 0; s = t.passSegs.next(s + 1) {
		ps := t.b.Pass[s]
		if i < len(ps) {
			return TransferKey{t.segs[s].v, t.segs[s].k, ps[i].Reg}, true
		}
		i -= len(ps)
	}
	return NoTransfer, false
}

// --- occupancy ---

// Occ returns the register occupancy of the current state. The table
// is the transaction's own, kept current by every mutation: it must
// not be written, and it changes as the move proceeds.
func (t *Tx) Occ() ([][]lifetime.ValueID, error) {
	if err := t.OccLegal(); err != nil {
		return nil, err
	}
	return t.occ, nil
}

// OccLegal reports whether the current register assignment is
// conflict-free — the transactional form of the movers' RegOccupancy
// legality probe.
func (t *Tx) OccLegal() error {
	if t.regBad+t.regClash > 0 {
		return ErrOccupancyConflict
	}
	return nil
}

// FUOcc returns the FU occupancy of the current state under the same
// discipline as Occ.
func (t *Tx) FUOcc() (*FUOccupancy, error) {
	if t.fuBad+t.issueClash+t.passClash > 0 {
		return nil, ErrOccupancyConflict
	}
	return &t.fuocc, nil
}

// CheckOccupancy compares the transaction's occupancy with the
// from-scratch RegOccupancy and FUOccupancy of its binding: both must
// report a conflict, or both succeed with equal tables. It then
// rebuilds the segment indexes from the binding and names the first
// entry where the kept copy differs. A claim or index entry left stale
// by a mutator or revert shows nowhere else, since it only changes
// which candidates the movers draw.
func (t *Tx) CheckOccupancy() error {
	want, werr := t.b.RegOccupancy()
	got, gerr := t.Occ()
	fwant, fwerr := t.b.FUOccupancy()
	fgot, fgerr := t.FUOcc()
	switch {
	case (werr == nil) != (gerr == nil):
		return fmt.Errorf("binding: register occupancy verdict %v, rebuild %v", gerr, werr)
	case (fwerr == nil) != (fgerr == nil):
		return fmt.Errorf("binding: FU occupancy verdict %v, rebuild %v", fgerr, fwerr)
	case werr == nil && !gridEqual(got, want):
		return errors.New("binding: register occupancy differs from a rebuild")
	case fwerr == nil && !(gridEqual(fgot.Issue, fwant.Issue) &&
		gridEqual(fgot.WriteEdge, fwant.WriteEdge) && gridEqual(fgot.PassAt, fwant.PassAt)):
		return errors.New("binding: FU occupancy differs from a rebuild")
	}
	return t.checkSegIndexes()
}

// checkSegIndexes compares each segment's entries in the segment
// indexes with a rebuild from the binding.
func (t *Tx) checkSegIndexes() error {
	b := t.b
	for s, sg := range t.segs {
		name := func() string {
			return fmt.Sprintf("segment %d (%s at position %d)", s, b.A.Values[sg.v].Name, sg.k)
		}
		for r, held := range t.regSegs {
			if got, want := held.has(s), b.HeldIn(sg.v, sg.k, r); got != want {
				return fmt.Errorf("binding: register index of R%d has %s: %t, a rebuild gives %t", r, name(), got, want)
			}
		}
		n := b.numTransfersAt(sg.v, sg.k)
		if t.xferN[s] != n {
			return fmt.Errorf("binding: transfer count of %s is %d, a rebuild gives %d", name(), t.xferN[s], n)
		}
		if got := t.xferSegs.has(s); got != (n > 0) {
			return fmt.Errorf("binding: transfer index has %s: %t, a rebuild gives %t", name(), got, n > 0)
		}
		if got, want := t.passSegs.has(s), len(b.Pass[s]) > 0; got != want {
			return fmt.Errorf("binding: pass index has %s: %t, a rebuild gives %t", name(), got, want)
		}
	}
	return nil
}

// CheckSinks compares every cost-table entry with its sink's
// contribution in ic, the interconnect a full Eval of the binding's
// current state built: max(fanin − 1, 0). Two entries that traded
// places keep the total, so a check of totals alone misses them; this
// one names the first wrong sink. It holds only while no dirty sink
// awaits replay: after DeltaCost, a Commit following it, a Rollback or
// a Reset.
func (t *Tx) CheckSinks(ic *datapath.Interconnect) error {
	for idx, got := range t.cost {
		sink := t.sinks.Sink(idx)
		if want := max(ic.FaninOf(sink)-1, 0); int(got) != want {
			return fmt.Errorf("binding: cost entry of %v is %d, full evaluation gives %d", sink, got, want)
		}
	}
	return nil
}

// --- incremental cost ---

// Cost assembles the current cost from the incrementally maintained
// terms. It is only meaningful once the dirty sinks have been replayed
// (i.e. after DeltaCost or on a clean baseline).
func (t *Tx) Cost() Cost {
	c := Cost{
		FUsUsed:  t.fusUsed,
		FUArea:   t.fuArea,
		RegsUsed: t.regsUsed,
		MuxCost:  t.muxCost,
	}
	c.Total = c.FUArea + Wreg*c.RegsUsed + Wmux*c.MuxCost
	return c
}

// DeltaCost replays every dirty sink against the mutated binding,
// journaling the overwritten contributions, and returns the move's
// resulting cost. An error reproduces exactly the error a full Eval of
// the mutated binding reports (a sink needing two sources in one
// step); the caller rolls back or aborts.
func (t *Tx) DeltaCost() (Cost, error) {
	for _, idx := range t.dirtyList {
		c, err := t.replaySink(idx)
		if err != nil {
			return Cost{}, err
		}
		t.costUndo = append(t.costUndo, costRec{idx: idx, old: t.setCost(idx, c)})
	}
	return t.Cost(), nil
}

// setCost sets sink idx's cost entry to c, adjusts the total and
// returns the old entry for the cost journal.
func (t *Tx) setCost(idx, c int) int {
	old := int(t.cost[idx])
	t.cost[idx] = int32(c)
	t.muxCost += c - old
	return old
}

// replaySink rebuilds one sink's fanin from scratch by replaying its
// use-events in Eval's global order and returns its mux contribution.
func (t *Tx) replaySink(idx int) (int, error) {
	sink := t.sinks.Sink(idx)
	ns := &t.ns
	ns.Reset()
	var err error
	switch sink.Kind {
	case datapath.SinkFUPort:
		err = t.replayFUPort(sink, ns)
	case datapath.SinkReg:
		err = t.replayRegSegs(sink, ns)
	case datapath.SinkOutput:
		err = t.addRead(sink, &t.outReads[sink.Index], ns)
	}
	if err != nil {
		return 0, err
	}
	return ns.MuxCost(), nil
}

// pickHolderScratch mirrors Eval's pickHolder against the scratch net
// for a read of value v's chain position k, segment s: prefer a holder
// already connected to the sink, else the primary. A segment without
// copies has one holder, which is then the pick whatever the net holds.
func (t *Tx) pickHolderScratch(v lifetime.ValueID, k, s int, ns *datapath.NetScratch) int {
	b := t.b
	primary := b.SegReg[v][k]
	copies := b.Copies[s]
	if len(copies) == 0 || ns.Has(datapath.Source{Kind: datapath.SrcReg, Index: primary}) {
		return primary
	}
	for _, c := range copies {
		if ns.Has(datapath.Source{Kind: datapath.SrcReg, Index: c}) {
			return c
		}
	}
	return primary
}

// addRead replays one read from the read tables, mirroring Eval's
// operandSource with scratch-net holder resolution.
func (t *Tx) addRead(sink datapath.Sink, rd *slotRead, ns *datapath.NetScratch) error {
	src := rd.src
	if rd.v != lifetime.NoValue {
		r := t.pickHolderScratch(rd.v, rd.k, rd.seg, ns)
		if r < 0 {
			return fmt.Errorf("binding: value %s has unassigned segment %d", t.b.A.Values[rd.v].Name, rd.k)
		}
		src = datapath.Source{Kind: datapath.SrcReg, Index: r}
	} else if rd.err != nil {
		return rd.err
	}
	return ns.Add(sink, src, rd.step)
}

// replayFUPort replays one FU input port: operand reads of the ops
// bound to the unit in node order (Eval's first phase), then — on port
// 0 of a unit carrying a pass-through — pass-through reads in Eval's
// segment order.
func (t *Tx) replayFUPort(sink datapath.Sink, ns *datapath.NetScratch) error {
	b := t.b
	f, port := sink.Index, sink.Port
	for _, i := range t.fuOps[f] {
		arg := port
		if b.OpSwap[i] {
			arg = 1 - port
		}
		if err := t.addRead(sink, &t.opReads[i][arg], ns); err != nil {
			return err
		}
	}
	if port != 0 || t.fuPass[f] == 0 {
		return nil
	}
	// Pass-through input reads. Every read into one segment happens in
	// the same step and resolves its source by the same query, so the
	// first decides and the rest add nothing: replay one read per
	// segment with a live transfer through f. Stale entries whose
	// transfer no longer exists are skipped exactly as Eval's holder
	// walk never reaches them.
	for s := t.passSegs.next(0); s >= 0; s = t.passSegs.next(s + 1) {
		sg := &t.segs[s]
		for _, p := range b.Pass[s] {
			if p.FU != f || !b.isTransfer(TransferKey{sg.v, sg.k, p.Reg}) {
				continue
			}
			if err := t.addTransferRead(sink, s, ns); err != nil {
				return err
			}
			break
		}
	}
	return nil
}

// addTransferRead adds the read of a transfer into segment s: a holder
// of the previous position, picked as Eval would, at that position's
// storage step.
func (t *Tx) addTransferRead(sink datapath.Sink, s int, ns *datapath.NetScratch) error {
	sg := &t.segs[s]
	from := t.pickHolderScratch(sg.v, sg.k-1, s-1, ns)
	if from < 0 {
		return fmt.Errorf("binding: value %s has unassigned segment %d", t.b.A.Values[sg.v].Name, sg.k-1)
	}
	return ns.Add(sink, datapath.Source{Kind: datapath.SrcReg, Index: from}, t.segs[s-1].step)
}

// replayRegSegs replays one register's write events — Eval's third
// phase restricted to this sink. The register's segment bits list the
// segments it holds in Eval's (value, position) order. A held segment
// at position 0 is a birth write; any other is an incoming transfer
// unless the register held the previous position too, which is the
// previous bit. So the events are the starts of the runs of set bits
// plus the held position-0 segments, and the walk visits only those,
// in ascending order. Conflicting claims have bits like any other, so
// this holds for every state, legal or not.
func (t *Tx) replayRegSegs(sink datapath.Sink, ns *datapath.NetScratch) error {
	var carry uint64
	for w, word := range t.regSegs[sink.Index] {
		births := word & t.pos0[w]
		ev := word&^(word<<1|carry) | births
		carry = word >> 63
		for ev != 0 {
			s := w<<6 + bits.TrailingZeros64(ev)
			var err error
			if births&(ev&-ev) != 0 {
				err = t.emitBirth(sink, t.segs[s].v, ns)
			} else {
				err = t.emitTransfer(sink, s, ns)
			}
			if err != nil {
				return err
			}
			ev &= ev - 1
		}
	}
	return nil
}

// emitBirth adds value v's producer write into register sink.
func (t *Tx) emitBirth(sink datapath.Sink, v lifetime.ValueID, ns *datapath.NetScratch) error {
	bw := &t.births[v]
	src := datapath.Source{Kind: datapath.SrcInput, Index: bw.input}
	if bw.input < 0 {
		pf := t.b.OpFU[bw.producer]
		if pf < 0 {
			return fmt.Errorf("binding: producer of %s unbound", t.b.A.Values[v].Name)
		}
		src = datapath.Source{Kind: datapath.SrcFU, Index: pf}
	}
	return ns.Add(sink, src, bw.step)
}

// emitTransfer adds the transfer write into segment s of register
// sink: from the bound pass-through FU when one exists, else directly
// from a holder of the previous position picked as Eval would.
func (t *Tx) emitTransfer(sink datapath.Sink, s int, ns *datapath.NetScratch) error {
	if t.passSegs.has(s) {
		for _, p := range t.b.Pass[s] {
			if p.Reg == sink.Index {
				return ns.Add(sink, datapath.Source{Kind: datapath.SrcFU, Index: p.FU}, t.segs[s-1].step)
			}
		}
	}
	return t.addTransferRead(sink, s, ns)
}
