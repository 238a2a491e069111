package core

import (
	"math/rand"

	"salsa/internal/binding"
	"salsa/internal/cdfg"
	"salsa/internal/lifetime"
	"salsa/internal/sched"
)

// moveKind enumerates the paper's Table 1.
type moveKind int

const (
	moveFUExchange     moveKind = iota // F1
	moveFUMove                         // F2
	moveOperandReverse                 // F3
	moveBindPass                       // F4
	moveUnbindPass                     // F5
	moveSegExchange                    // R1
	moveSegMove                        // R2
	moveValueExchange                  // R3
	moveValueMove                      // R4
	moveValueSplit                     // R5
	moveValueMerge                     // R6
	numMoveKinds
)

var moveNames = [numMoveKinds]string{
	"F1:fu-exchange", "F2:fu-move", "F3:operand-reverse",
	"F4:bind-pass", "F5:unbind-pass",
	"R1:seg-exchange", "R2:seg-move", "R3:value-exchange",
	"R4:value-move", "R5:value-split", "R6:value-merge",
}

func (m moveKind) String() string { return moveNames[m] }

// moveWeights biases random selection; complex value-level moves are
// picked less often to control run time (§4).
var moveWeights = [numMoveKinds]int{
	moveFUExchange:     8,
	moveFUMove:         12,
	moveOperandReverse: 10,
	moveBindPass:       8,
	moveUnbindPass:     4,
	moveSegExchange:    6,
	moveSegMove:        8,
	moveValueExchange:  6,
	moveValueMove:      6,
	moveValueSplit:     4,
	moveValueMerge:     4,
}

// mover bundles the random move generator with cached lookups. Moves
// mutate the target binding exclusively through its transaction, so the
// search can undo a rejected move.
type mover struct {
	rng  *rand.Rand
	opts Options

	arithOps   []cdfg.NodeID
	commOps    []cdfg.NodeID
	valueIDs   []lifetime.ValueID
	enabled    []moveKind
	weightsSum int
	weights    []int

	// Scratch reused across moves so a move allocates nothing.
	tkBuf  []binding.TransferKey
	intBuf []int
}

func newMover(b *binding.Binding, opts Options, rng *rand.Rand) *mover {
	m := &mover{rng: rng, opts: opts}
	g := b.A.Sched.G
	for i := range g.Nodes {
		if g.Nodes[i].Op.IsArith() {
			m.arithOps = append(m.arithOps, cdfg.NodeID(i))
			if g.Nodes[i].Op.Commutative() {
				m.commOps = append(m.commOps, cdfg.NodeID(i))
			}
		}
	}
	for i := range b.A.Values {
		m.valueIDs = append(m.valueIDs, lifetime.ValueID(i))
	}
	for k := moveKind(0); k < numMoveKinds; k++ {
		switch k {
		case moveBindPass, moveUnbindPass:
			if !opts.EnablePass {
				continue
			}
		case moveSegExchange, moveSegMove:
			if !opts.EnableSegments {
				continue
			}
		case moveValueSplit, moveValueMerge:
			if !opts.EnableSplit {
				continue
			}
		}
		m.enabled = append(m.enabled, k)
		m.weights = append(m.weights, moveWeights[k])
		m.weightsSum += moveWeights[k]
	}
	return m
}

// pickKind draws a move kind from the weighted distribution.
func (m *mover) pickKind() moveKind {
	x := m.rng.Intn(m.weightsSum)
	for i, w := range m.weights {
		if x < w {
			return m.enabled[i]
		}
		x -= w
	}
	return m.enabled[len(m.enabled)-1]
}

// apply mutates the transaction's binding with one random instance of
// kind. It reports whether a mutation happened; callers evaluate and
// accept, or roll the transaction back.
func (m *mover) apply(tx *binding.Tx, kind moveKind) bool {
	switch kind {
	case moveFUExchange:
		return m.fuExchange(tx)
	case moveFUMove:
		return m.fuMove(tx)
	case moveOperandReverse:
		return m.operandReverse(tx)
	case moveBindPass:
		return m.bindPass(tx)
	case moveUnbindPass:
		return m.unbindPass(tx)
	case moveSegExchange:
		return m.segExchange(tx)
	case moveSegMove:
		return m.segMove(tx)
	case moveValueExchange:
		return m.valueExchange(tx)
	case moveValueMove:
		return m.valueMove(tx)
	case moveValueSplit:
		return m.valueSplit(tx)
	case moveValueMerge:
		return m.valueMerge(tx)
	}
	return false
}

// fuExchange (F1) swaps the complete bindings of two same-class FUs.
func (m *mover) fuExchange(tx *binding.Tx) bool {
	b := tx.B()
	c := sched.Class(m.rng.Intn(int(sched.NumClasses)))
	fus := b.HW.FUsOfClass(c)
	if len(fus) < 2 {
		return false
	}
	i := m.rng.Intn(len(fus))
	j := m.rng.Intn(len(fus) - 1)
	if j >= i {
		j++
	}
	f1, f2 := fus[i], fus[j]
	for o := range b.OpFU {
		switch b.OpFU[o] {
		case f1:
			tx.SetOpFU(cdfg.NodeID(o), f2)
		case f2:
			tx.SetOpFU(cdfg.NodeID(o), f1)
		}
	}
	if b.NumPass() > 0 {
		for _, v := range m.valueIDs {
			for k := 0; k < b.A.Values[v].Len; k++ {
				for _, p := range b.PassesAt(v, k) {
					switch p.FU {
					case f1:
						tx.SetPass(binding.TransferKey{V: v, K: k, ToReg: p.Reg}, f2)
					case f2:
						tx.SetPass(binding.TransferKey{V: v, K: k, ToReg: p.Reg}, f1)
					}
				}
			}
		}
	}
	tx.PrunePass()
	return true
}

// fuMove (F2) reassigns one operator to another unit of its class that
// is free over the operator's initiation window.
func (m *mover) fuMove(tx *binding.Tx) bool {
	// Shrunk oracle cases can be operator-free (only states and ports).
	if len(m.arithOps) == 0 {
		return false
	}
	b := tx.B()
	op := m.arithOps[m.rng.Intn(len(m.arithOps))]
	g := b.A.Sched.G
	s := b.A.Sched
	c := sched.ClassOf(g.Nodes[op].Op)
	fus := b.HW.FUsOfClass(c)
	if len(fus) < 2 {
		return false
	}
	occ, err := tx.FUOcc()
	if err != nil {
		return false
	}
	cur := b.OpFU[op]
	st := s.Start[op]
	ii := s.Delays.IIOf(g.Nodes[op].Op)
	// Random rotation over candidate FUs.
	off := m.rng.Intn(len(fus))
	for d := 0; d < len(fus); d++ {
		f := fus[(off+d)%len(fus)]
		if f == cur {
			continue
		}
		free := true
		for t := st; t < st+ii; t++ {
			if occ.Issue[f][t] != cdfg.NoNode {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		tx.SetOpFU(op, f)
		tx.PrunePass() // passes on f may now clash with the new op
		return true
	}
	return false
}

// operandReverse (F3) flips the input order of one commutative operator.
func (m *mover) operandReverse(tx *binding.Tx) bool {
	if len(m.commOps) == 0 {
		return false
	}
	tx.FlipSwap(m.commOps[m.rng.Intn(len(m.commOps))])
	return true
}

// bindPass (F4) assigns a slack operator (data transfer) to an idle
// pass-capable FU.
func (m *mover) bindPass(tx *binding.Tx) bool {
	b := tx.B()
	m.tkBuf = b.AppendTransfers(m.tkBuf[:0])
	transfers := m.tkBuf
	if len(transfers) == 0 {
		return false
	}
	occ, err := tx.FUOcc()
	if err != nil {
		return false
	}
	off := m.rng.Intn(len(transfers))
	for d := 0; d < len(transfers); d++ {
		tk := transfers[(off+d)%len(transfers)]
		if _, bound := b.PassOf(tk); bound {
			continue
		}
		t := b.A.Values[tk.V].StepAt(tk.K-1, b.A.StorageSteps)
		cands := m.intBuf[:0]
		for f := range b.HW.FUs {
			if b.FUPassFree(occ, f, t, tk) {
				cands = append(cands, f)
			}
		}
		m.intBuf = cands
		if len(cands) == 0 {
			continue
		}
		tx.SetPass(tk, cands[m.rng.Intn(len(cands))])
		return true
	}
	return false
}

// unbindPass (F5) removes one pass-through binding.
func (m *mover) unbindPass(tx *binding.Tx) bool {
	b := tx.B()
	if b.NumPass() == 0 {
		return false
	}
	// Draw the i-th binding in ascending transfer-key order, the order
	// the dense layout stores them in.
	i := m.rng.Intn(b.NumPass())
	for _, v := range m.valueIDs {
		for k := 0; k < b.A.Values[v].Len; k++ {
			ps := b.PassesAt(v, k)
			if i < len(ps) {
				tx.UnbindPass(binding.TransferKey{V: v, K: k, ToReg: ps[i].Reg})
				return true
			}
			i -= len(ps)
		}
	}
	return false
}

// segExchange (R1) swaps the registers of two segments in one step.
func (m *mover) segExchange(tx *binding.Tx) bool {
	b := tx.B()
	occ, err := tx.Occ()
	if err != nil {
		return false
	}
	t := m.rng.Intn(b.A.StorageSteps)
	regs := m.intBuf[:0]
	for r := range occ {
		if occ[r][t] != lifetime.NoValue {
			regs = append(regs, r)
		}
	}
	m.intBuf = regs
	if len(regs) < 2 {
		return false
	}
	i := m.rng.Intn(len(regs))
	j := m.rng.Intn(len(regs) - 1)
	if j >= i {
		j++
	}
	r1, r2 := regs[i], regs[j]
	// The occupancy table is live: read both holders before mutating.
	v1, v2 := occ[r1][t], occ[r2][t]
	if v1 == v2 {
		return false // two copies of one value: swapping is a no-op
	}
	m.rebindHolder(tx, v1, t, r1, r2)
	m.rebindHolder(tx, v2, t, r2, r1)
	tx.PrunePass()
	return true
}

// rebindHolder changes which register holds value v at step t: from -> to.
func (m *mover) rebindHolder(tx *binding.Tx, v lifetime.ValueID, t, from, to int) {
	b := tx.B()
	k, ok := b.A.Values[v].LiveAt(t, b.A.StorageSteps)
	if !ok {
		return
	}
	if b.SegReg[v][k] == from {
		tx.SetSegReg(v, k, to)
		return
	}
	if tx.RemoveCopy(v, k, from) {
		tx.AddCopy(v, k, to)
	}
}

// segMove (R2) reassigns value segments to an unused register. One
// third of the time it moves a single segment; otherwise it moves the
// whole suffix of the chain starting at a random position, which
// introduces exactly one new transfer and is how a value migrates
// registers mid-life in the extended model.
func (m *mover) segMove(tx *binding.Tx) bool {
	if len(m.valueIDs) == 0 {
		return false
	}
	b := tx.B()
	occ, err := tx.Occ()
	if err != nil {
		return false
	}
	v := m.valueIDs[m.rng.Intn(len(m.valueIDs))]
	val := &b.A.Values[v]
	k := m.rng.Intn(val.Len)
	t := val.StepAt(k, b.A.StorageSteps)
	free := m.freeRegs(occ, t)
	if len(free) == 0 {
		return false
	}
	to := free[m.rng.Intn(len(free))]

	if m.rng.Intn(3) > 0 {
		// Suffix move: primary segments k..Len-1 all go to `to`,
		// stopping early if `to` is occupied by another value. The
		// occupancy table is live, but each step tt is read before
		// any segment at tt moves: v's chain positions occupy
		// distinct steps.
		moved := 0
		for kk := k; kk < val.Len; kk++ {
			tt := val.StepAt(kk, b.A.StorageSteps)
			holder := occ[to][tt]
			if holder != lifetime.NoValue && holder != v {
				break
			}
			if b.SegReg[v][kk] == to {
				break // already there: joining an existing tail
			}
			// Drop a colliding copy of v itself before taking the slot.
			tx.RemoveCopy(v, kk, to)
			tx.SetSegReg(v, kk, to)
			moved++
		}
		if moved == 0 {
			return false
		}
		tx.PrunePass()
		return true
	}

	// Single-segment move of the primary, or of a copy half the time
	// when one exists.
	from := b.SegReg[v][k]
	if copies := b.CopiesAt(v, k); len(copies) > 0 && m.rng.Intn(2) == 0 {
		from = copies[m.rng.Intn(len(copies))]
	}
	m.rebindHolder(tx, v, t, from, to)
	tx.PrunePass()
	return true
}

// valueExchange (R3) swaps the primary register bindings of two values
// wherever both are live; rejected if the result is illegal.
func (m *mover) valueExchange(tx *binding.Tx) bool {
	if len(m.valueIDs) < 2 {
		return false
	}
	b := tx.B()
	i := m.rng.Intn(len(m.valueIDs))
	j := m.rng.Intn(len(m.valueIDs) - 1)
	if j >= i {
		j++
	}
	v1, v2 := m.valueIDs[i], m.valueIDs[j]
	val1, val2 := &b.A.Values[v1], &b.A.Values[v2]
	if !m.opts.EnableSegments {
		// Whole-value semantics: swap the two registers wholesale so
		// contiguity is preserved under the traditional model.
		r1, r2 := b.SegReg[v1][0], b.SegReg[v2][0]
		if r1 == r2 {
			return false
		}
		for k := range b.SegReg[v1] {
			tx.SetSegReg(v1, k, r2)
		}
		for k := range b.SegReg[v2] {
			tx.SetSegReg(v2, k, r1)
		}
	} else {
		for k := 0; k < val1.Len; k++ {
			t := val1.StepAt(k, b.A.StorageSteps)
			if k2, ok := val2.LiveAt(t, b.A.StorageSteps); ok {
				r1, r2 := b.SegReg[v1][k], b.SegReg[v2][k2]
				tx.SetSegReg(v1, k, r2)
				tx.SetSegReg(v2, k2, r1)
			}
		}
	}
	if tx.OccLegal() != nil {
		return false // caller rolls the transaction back
	}
	tx.PrunePass()
	return true
}

// valueMove (R4) reassigns all segments of one value to a single
// register; rejected if the register is not free across the lifetime.
func (m *mover) valueMove(tx *binding.Tx) bool {
	if len(m.valueIDs) == 0 {
		return false
	}
	b := tx.B()
	v := m.valueIDs[m.rng.Intn(len(m.valueIDs))]
	r := m.rng.Intn(len(b.HW.Regs))
	val := &b.A.Values[v]
	for k := 0; k < val.Len; k++ {
		// Drop copies that would collide with the new primary.
		tx.RemoveCopy(v, k, r)
		tx.SetSegReg(v, k, r)
	}
	if tx.OccLegal() != nil {
		return false
	}
	tx.PrunePass()
	return true
}

// valueSplit (R5) stores a copy of one value segment in a free register.
func (m *mover) valueSplit(tx *binding.Tx) bool {
	if len(m.valueIDs) == 0 {
		return false
	}
	b := tx.B()
	occ, err := tx.Occ()
	if err != nil {
		return false
	}
	v := m.valueIDs[m.rng.Intn(len(m.valueIDs))]
	val := &b.A.Values[v]
	k := m.rng.Intn(val.Len)
	t := val.StepAt(k, b.A.StorageSteps)
	free := m.freeRegs(occ, t)
	if len(free) == 0 {
		return false
	}
	tx.AddCopy(v, k, free[m.rng.Intn(len(free))])
	// The copy may erase an adjacent transfer (the value now already
	// sits in the pass target's register), invalidating its binding.
	tx.PrunePass()
	return true
}

// valueMerge (R6) eliminates one copy segment.
func (m *mover) valueMerge(tx *binding.Tx) bool {
	b := tx.B()
	if b.NumCopies() == 0 {
		return false
	}
	// Draw the i-th copy in (value, position, list) order.
	i := m.rng.Intn(b.NumCopies())
	for _, v := range m.valueIDs {
		for k := 0; k < b.A.Values[v].Len; k++ {
			cs := b.CopiesAt(v, k)
			if i < len(cs) {
				tx.RemoveCopy(v, k, cs[i])
				tx.PrunePass()
				return true
			}
			i -= len(cs)
		}
	}
	return false
}

// freeRegs lists the registers free at storage step t, in ascending
// order, in the mover's scratch buffer.
func (m *mover) freeRegs(occ [][]lifetime.ValueID, t int) []int {
	free := m.intBuf[:0]
	for r := range occ {
		if occ[r][t] == lifetime.NoValue {
			free = append(free, r)
		}
	}
	m.intBuf = free
	return free
}
