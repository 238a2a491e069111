package binding

import (
	"errors"
	"fmt"

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
	b  *Binding
	ct *datapath.CostTable
	ns datapath.NetScratch

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

	// arith lists the arithmetic nodes in node order; outNode inverts
	// the binding's output port index.
	arith   []cdfg.NodeID
	outNode []cdfg.NodeID

	passTmp []passEv
	segTmp  []segPos
}

type undoOp int

const (
	undoOpFU undoOp = iota
	undoSwap
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
// DeltaCost.
type costRec struct {
	idx int
	old int
}

type passEv struct {
	tk  TransferKey
	pos int
}

// segPos is one (value, chain position) pair held by a register,
// recovered from the occupancy table during register-sink replay.
type segPos struct {
	v lifetime.ValueID
	k int
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
	}
	for r := range t.regCnt {
		t.regCnt[r] = 0
	}
	t.fusUsed, t.fuArea, t.regsUsed = 0, 0, 0
	for _, op := range t.arith {
		if f := b.OpFU[op]; f >= 0 {
			t.incArith(f)
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

	t.ct.Zero()
	if t.regBad > 0 || t.fuBad > 0 {
		// Sink replay never visits an unassigned segment or an unbound
		// operator, so only the full evaluation reports those.
		ic, _, err := b.Eval()
		if err != nil {
			return err
		}
		for idx := 0; idx < t.ct.Len(); idx++ {
			if fan := ic.FaninOf(t.ct.SinkOf(idx)); fan > 1 {
				t.ct.Set(idx, fan-1)
			}
		}
		return nil
	}
	for idx := 0; idx < t.ct.Len(); idx++ {
		c, err := t.replaySink(idx)
		if err != nil {
			return err
		}
		t.ct.Set(idx, c)
	}
	return nil
}

// ensureShape sizes the reusable tables to the binding's hardware and
// schedule dimensions, reallocating only when they changed.
func (t *Tx) ensureShape() {
	b := t.b
	nF, nR, nO := len(b.HW.FUs), len(b.HW.Regs), b.numOutputs
	if t.ct == nil || t.ct.NumFUs != nF || t.ct.NumRegs != nR || t.ct.NumOuts != nO {
		t.ct = datapath.NewCostTable(nF, nR, nO)
		t.dirty = make([]bool, t.ct.Len())
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
	g := b.A.Sched.G
	t.arith = t.arith[:0]
	for i := range g.Nodes {
		if g.Nodes[i].Op.IsArith() {
			t.arith = append(t.arith, cdfg.NodeID(i))
		}
	}
	if len(t.outNode) != nO {
		t.outNode = make([]cdfg.NodeID, nO)
	}
	for n, idx := range b.outputIndex {
		if idx >= 0 {
			t.outNode[idx] = cdfg.NodeID(n)
		}
	}
}

// seedOcc rebuilds the occupancy tables and conflict counters from the
// binding, claim by claim.
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
	t.regBad, t.regClash = 0, 0
	t.fuBad, t.issueClash, t.passClash = 0, 0, 0
	for v := range b.A.Values {
		vid := lifetime.ValueID(v)
		for k := 0; k < b.A.Values[v].Len; k++ {
			t.claimSeg(vid, k, b.SegReg[v][k], 1)
			for _, c := range b.CopiesAt(vid, k) {
				t.claimSeg(vid, k, c, 1)
			}
			for _, p := range b.PassesAt(vid, k) {
				t.claimPass(TransferKey{vid, k, p.Reg}, p.FU, 1)
			}
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
// chain position k on register r.
func (t *Tx) claimSeg(v lifetime.ValueID, k, r int, d int32) {
	if r < 0 || r >= len(t.occ) {
		t.regBad += int(d)
		return
	}
	s := t.b.A.Values[v].StepAt(k, t.b.A.StorageSteps)
	t.regClash += claimCell(&t.occN[r][s], d)
	t.occ[r][s] += lifetime.ValueID(d) * (v + 1)
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
func (t *Tx) claimPass(tk TransferKey, f int, d int32) {
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

// Rollback rejects the move: cost entries overwritten by DeltaCost are
// restored from the journal and the binding mutations are unwound in
// reverse order, re-adjusting the use counts and occupancy
// symmetrically.
func (t *Tx) Rollback() {
	t.inMove = false
	for i := len(t.costUndo) - 1; i >= 0; i-- {
		cu := t.costUndo[i]
		t.ct.Set(cu.idx, cu.old)
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
		return t.b.Cfg.WfuMul
	}
	return t.b.Cfg.WfuALU
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

func (t *Tx) markIdx(idx int) {
	if idx < 0 || t.dirty[idx] {
		return
	}
	t.dirty[idx] = true
	t.dirtyList = append(t.dirtyList, idx)
}

func (t *Tx) markReg(r int) {
	if r >= 0 && r < t.ct.NumRegs {
		t.markIdx(2*t.ct.NumFUs + r)
	}
}

func (t *Tx) markFUPorts(f int) {
	if f >= 0 && f < t.ct.NumFUs {
		t.markIdx(2 * f)
		t.markIdx(2*f + 1)
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

// markValue marks every sink whose event sequence can depend on value
// v's holder sets: the FU ports and output ports reading it, every
// register holding it (primary or copy, any position), and the input
// ports of pass-through FUs carrying its transfers.
func (t *Tx) markValue(v lifetime.ValueID) {
	if v == lifetime.NoValue {
		return
	}
	b := t.b
	val := &b.A.Values[v]
	for _, rd := range val.Reads {
		if rd.Port < 0 {
			t.markIdx(2*t.ct.NumFUs + t.ct.NumRegs + b.outputIndex[rd.Consumer])
		} else {
			t.markFUPorts(b.OpFU[rd.Consumer])
		}
	}
	for k := 0; k < val.Len; k++ {
		t.markReg(b.SegReg[v][k])
		for _, c := range b.CopiesAt(v, k) {
			t.markReg(c)
		}
		for _, p := range b.PassesAt(v, k) {
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

// rebindOp moves op from unit old to unit f, keeping the use counts and
// the FU occupancy current.
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
	}
	t.b.OpFU[op] = f
}

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
	t.markValue(v)
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
	t.claimSeg(v, k, from, -1)
	t.claimSeg(v, k, to, 1)
	t.b.SegReg[v][k] = to
}

// AddCopy stores a copy of (v, k) in register r (move R5).
func (t *Tx) AddCopy(v lifetime.ValueID, k, r int) {
	b := t.b
	t.record(undoRec{op: undoAddCopy, a: int(v), b: k, c: r, d: len(b.CopiesAt(v, k))})
	b.AddCopy(v, k, r)
	t.incReg(r)
	t.claimSeg(v, k, r, 1)
	t.markReg(r)
	t.markValue(v)
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
		t.markValue(v)
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
	if existed {
		t.record(undoRec{op: undoSetPass, a: old, tk: tk})
		t.decPass(old)
		t.claimPass(tk, old, -1)
		t.markIdx(2 * old)
	} else {
		t.record(undoRec{op: undoNewPass, tk: tk})
	}
	b.SetPass(tk, f)
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
// exists or whose FU is no longer free — the transactional counterpart
// of Binding.PrunePass, with undo logging and dirty marking.
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
	for v := range b.A.Values {
		vid := lifetime.ValueID(v)
		for k := 0; k < b.A.Values[v].Len; k++ {
			ps := b.PassesAt(vid, k)
			for i := 0; i < len(ps); {
				tk := TransferKey{vid, k, ps[i].Reg}
				if b.isTransfer(tk) && b.FUPassFree(occ, ps[i].FU, b.transferStep(tk), tk) {
					i++
					continue
				}
				t.UnbindPass(tk)
				ps = b.PassesAt(vid, k)
				n++
			}
		}
	}
	return n
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
// report a conflict, or both succeed with equal tables. A claim left
// stale by a mutator or revert shows nowhere else, since it only
// changes which candidates the movers draw.
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
		MuxCost:  t.ct.Total(),
	}
	c.Total = c.FUArea + t.b.Cfg.Wreg*c.RegsUsed + t.b.Cfg.Wmux*c.MuxCost
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
		old := t.ct.Set(idx, c)
		t.costUndo = append(t.costUndo, costRec{idx: idx, old: old})
	}
	return t.Cost(), nil
}

// replaySink rebuilds one sink's fanin from scratch by replaying its
// use-events in Eval's global order and returns its mux contribution.
func (t *Tx) replaySink(idx int) (int, error) {
	sink := t.ct.SinkOf(idx)
	ns := &t.ns
	ns.Reset()
	var err error
	switch sink.Kind {
	case datapath.SinkFUPort:
		err = t.replayFUPort(sink, ns)
	case datapath.SinkReg:
		// The occupancy table inverts HeldIn: one pass over this
		// register's column recovers every (value, position) it holds.
		// Under a register conflict, which full Eval does not detect,
		// the column cannot list both claimants, so replay through
		// HeldIn instead.
		if t.OccLegal() == nil {
			err = t.replayRegOcc(sink, ns)
		} else {
			err = t.replayReg(sink, ns)
		}
	case datapath.SinkOutput:
		err = t.replayOutput(sink, ns)
	}
	if err != nil {
		return 0, err
	}
	return ns.MuxCost(), nil
}

// pickHolderScratch mirrors Eval's pickHolder against the scratch net:
// prefer a holder already connected to the sink, else the primary.
func (t *Tx) pickHolderScratch(v lifetime.ValueID, k int, ns *datapath.NetScratch) int {
	b := t.b
	primary := b.SegReg[v][k]
	if ns.Has(datapath.Source{Kind: datapath.SrcReg, Index: primary}) {
		return primary
	}
	for _, c := range b.CopiesAt(v, k) {
		if ns.Has(datapath.Source{Kind: datapath.SrcReg, Index: c}) {
			return c
		}
	}
	return primary
}

// operandSrc mirrors Eval's operandSource with scratch-net resolution.
func (t *Tx) operandSrc(arg cdfg.NodeID, step int, ns *datapath.NetScratch) (datapath.Source, error) {
	b := t.b
	g := b.A.Sched.G
	an := &g.Nodes[arg]
	switch {
	case an.Op == cdfg.Const:
		return datapath.Source{Kind: datapath.SrcConst, Index: int(arg)}, nil
	case an.Op == cdfg.Input && b.A.ValueOf[arg] == lifetime.NoValue:
		return datapath.Source{Kind: datapath.SrcInput, Index: b.inputIndex[arg]}, nil
	default:
		vid := b.A.ValueOf[arg]
		if vid == lifetime.NoValue {
			return datapath.Source{}, fmt.Errorf("binding: node %s is not a storage value", an.Name)
		}
		v := &b.A.Values[vid]
		k, ok := v.LiveAt(step, b.A.StorageSteps)
		if !ok {
			return datapath.Source{}, fmt.Errorf("binding: %s read at step %d outside live range", v.Name, step)
		}
		r := t.pickHolderScratch(vid, k, ns)
		if r < 0 {
			return datapath.Source{}, fmt.Errorf("binding: value %s has unassigned segment %d", v.Name, k)
		}
		return datapath.Source{Kind: datapath.SrcReg, Index: r}, nil
	}
}

// replayFUPort replays one FU input port: operand reads of the ops
// bound to the unit in node order (Eval's first phase), then — on port
// 0 — pass-through reads in Eval's value/position order.
func (t *Tx) replayFUPort(sink datapath.Sink, ns *datapath.NetScratch) error {
	b := t.b
	g := b.A.Sched.G
	s := b.A.Sched
	f, port := sink.Index, sink.Port
	for _, i := range t.arith {
		if b.OpFU[i] != f {
			continue
		}
		n := &g.Nodes[i]
		argPort := port
		if b.OpSwap[i] {
			argPort = 1 - port
		}
		step := s.Start[i]
		src, err := t.operandSrc(n.Args[argPort], step, ns)
		if err != nil {
			return err
		}
		if err := ns.Add(sink, src, step); err != nil {
			return err
		}
	}
	if port != 0 || b.nPass == 0 {
		return nil
	}
	// Pass-through input reads. Eval visits them value-ascending, chain
	// position ascending, holder position ascending; collect the unit's
	// live transfers and sort them into that order before replaying.
	// Stale entries whose transfer no longer exists are skipped exactly
	// as Eval's holder walk never reaches them. Without a pass conflict
	// the unit's PassAt row lists every live one (a real transfer's step
	// always lies within the FU tables); otherwise walk all bindings.
	t.passTmp = t.passTmp[:0]
	if t.passClash == 0 {
		for _, tk := range t.fuocc.PassAt[f] {
			if tk != NoTransfer && b.isTransfer(tk) {
				t.passTmp = append(t.passTmp, passEv{tk: tk, pos: t.holderPos(tk)})
			}
		}
	} else {
		for v := range b.A.Values {
			vid := lifetime.ValueID(v)
			for k := 0; k < b.A.Values[v].Len; k++ {
				for _, p := range b.PassesAt(vid, k) {
					if tk := (TransferKey{vid, k, p.Reg}); p.FU == f && b.isTransfer(tk) {
						t.passTmp = append(t.passTmp, passEv{tk: tk, pos: t.holderPos(tk)})
					}
				}
			}
		}
	}
	sortPassEvs(t.passTmp)
	for _, pe := range t.passTmp {
		v := &b.A.Values[pe.tk.V]
		tstep := v.StepAt(pe.tk.K-1, b.A.StorageSteps)
		from := t.pickHolderScratch(pe.tk.V, pe.tk.K-1, ns)
		if from < 0 {
			return fmt.Errorf("binding: value %s has unassigned segment %d", v.Name, pe.tk.K-1)
		}
		if err := ns.Add(sink, datapath.Source{Kind: datapath.SrcReg, Index: from}, tstep); err != nil {
			return err
		}
	}
	return nil
}

// holderPos returns the position of tk.ToReg in HoldersAt(tk.V, tk.K):
// 0 for the primary register, 1+i for the i-th copy.
func (t *Tx) holderPos(tk TransferKey) int {
	if t.b.SegReg[tk.V][tk.K] == tk.ToReg {
		return 0
	}
	for i, c := range t.b.CopiesAt(tk.V, tk.K) {
		if c == tk.ToReg {
			return i + 1
		}
	}
	return 1 << 30
}

func sortPassEvs(evs []passEv) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && lessPassEv(evs[j], evs[j-1]); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

func lessPassEv(a, b passEv) bool {
	if a.tk.V != b.tk.V {
		return a.tk.V < b.tk.V
	}
	if a.tk.K != b.tk.K {
		return a.tk.K < b.tk.K
	}
	return a.pos < b.pos
}

// replayOutput replays one external output port's single read.
func (t *Tx) replayOutput(sink datapath.Sink, ns *datapath.NetScratch) error {
	b := t.b
	g := b.A.Sched.G
	s := b.A.Sched
	n := t.outNode[sink.Index]
	step := s.Start[n]
	if g.Cyclic {
		step %= s.Steps
	}
	src, err := t.operandSrc(g.Nodes[n].Args[0], step, ns)
	if err != nil {
		return err
	}
	return ns.Add(sink, src, step)
}

// replayReg replays one register's write events: for each value in ID
// order, the birth write when the register holds chain position 0, then
// the incoming transfer at each later position it holds without having
// held the previous one — exactly Eval's third phase restricted to this
// sink.
func (t *Tx) replayReg(sink datapath.Sink, ns *datapath.NetScratch) error {
	b := t.b
	r := sink.Index
	for i := range b.A.Values {
		v := &b.A.Values[i]
		vid := v.ID
		if b.HeldIn(vid, 0, r) {
			if err := t.emitBirth(sink, v, ns); err != nil {
				return err
			}
		}
		for k := 1; k < v.Len; k++ {
			if !b.HeldIn(vid, k, r) || b.HeldIn(vid, k-1, r) {
				continue
			}
			if err := t.emitTransfer(sink, v, k, r, ns); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayRegOcc is replayReg driven by the occupancy table: the
// register's column lists exactly the (value, position) pairs HeldIn
// would report, so sorting them into (value, position) order and
// checking adjacency for the held-previous-position test reproduces
// the HeldIn scan without any map probes. Requires a conflict-free
// register occupancy.
func (t *Tx) replayRegOcc(sink datapath.Sink, ns *datapath.NetScratch) error {
	b := t.b
	ss := b.A.StorageSteps
	col := t.occ[sink.Index]
	t.segTmp = t.segTmp[:0]
	for step, vid := range col {
		if vid == lifetime.NoValue {
			continue
		}
		k := step - b.A.Values[vid].Birth
		if k < 0 {
			k += ss
		}
		t.segTmp = append(t.segTmp, segPos{v: vid, k: k})
	}
	sortSegPos(t.segTmp)
	for i, sp := range t.segTmp {
		v := &b.A.Values[sp.v]
		if sp.k == 0 {
			if err := t.emitBirth(sink, v, ns); err != nil {
				return err
			}
			continue
		}
		// Held at k-1 too ⇔ the sorted list's previous entry is (v, k-1).
		if i > 0 && t.segTmp[i-1].v == sp.v && t.segTmp[i-1].k == sp.k-1 {
			continue
		}
		if err := t.emitTransfer(sink, v, sp.k, sink.Index, ns); err != nil {
			return err
		}
	}
	return nil
}

func sortSegPos(sp []segPos) {
	for i := 1; i < len(sp); i++ {
		for j := i; j > 0 && (sp[j].v < sp[j-1].v ||
			(sp[j].v == sp[j-1].v && sp[j].k < sp[j-1].k)); j-- {
			sp[j], sp[j-1] = sp[j-1], sp[j]
		}
	}
}

// emitBirth adds value v's producer write into register sink.
func (t *Tx) emitBirth(sink datapath.Sink, v *lifetime.Value, ns *datapath.NetScratch) error {
	b := t.b
	var src datapath.Source
	if pn := &b.A.Sched.G.Nodes[v.Producer]; pn.Op == cdfg.Input {
		src = datapath.Source{Kind: datapath.SrcInput, Index: b.inputIndex[v.Producer]}
	} else {
		pf := b.OpFU[v.Producer]
		if pf < 0 {
			return fmt.Errorf("binding: producer of %s unbound", v.Name)
		}
		src = datapath.Source{Kind: datapath.SrcFU, Index: pf}
	}
	return ns.Add(sink, src, b.A.WriteStep(v))
}

// emitTransfer adds the transfer write of (v, k) into register r: from
// the bound pass-through FU when one exists, else directly from a
// holder of the previous position picked as Eval would.
func (t *Tx) emitTransfer(sink datapath.Sink, v *lifetime.Value, k, r int, ns *datapath.NetScratch) error {
	b := t.b
	tstep := v.StepAt(k-1, b.A.StorageSteps)
	if f, viaPass := b.PassOf(TransferKey{v.ID, k, r}); viaPass {
		return ns.Add(sink, datapath.Source{Kind: datapath.SrcFU, Index: f}, tstep)
	}
	from := t.pickHolderScratch(v.ID, k-1, ns)
	if from < 0 {
		return fmt.Errorf("binding: value %s has unassigned segment %d", v.Name, k-1)
	}
	return ns.Add(sink, datapath.Source{Kind: datapath.SrcReg, Index: from}, tstep)
}
