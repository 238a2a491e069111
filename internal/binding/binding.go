// Package binding holds the extended-binding-model state the SALSA
// allocator manipulates: operator→FU assignments, per-segment register
// assignments, value copies, pass-through bindings and operand-order
// flags. It provides legality checking and the point-to-point cost
// evaluation the iterative improvement engine optimizes.
//
// The model follows §2 of the paper: every value is divided into
// one-control-step segments; each segment lives in a register; adjacent
// segments in different registers imply a data transfer implemented
// either by a direct register-to-register connection or by an idle
// pass-capable functional unit bound as a No-Op ("pass-through"); a
// value may additionally own copy segments in other registers.
package binding

import (
	"fmt"
	"slices"

	"salsa/internal/cdfg"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
	"salsa/internal/sched"
)

// The cost-function weights: an allocation's cost is a weighted sum of
// FU, register and interconnect counts (§1 and §4 of the paper). Under
// these weights interconnect dominates and a register is always worth
// trading for a multiplexer, reproducing the paper's
// storage-vs-interconnect exploration.
const (
	// WfuALU and WfuMul weigh one used FU of each class.
	WfuALU = 2
	WfuMul = 16
	// Wreg weighs one used register.
	Wreg = 1
	// Wmux weighs one equivalent 2-to-1 multiplexer.
	Wmux = 10
)

// TransferKey identifies a register-to-register data transfer: the
// write of value V's chain position K into register ToReg (from some
// register holding V at K-1).
type TransferKey struct {
	V     lifetime.ValueID
	K     int
	ToReg int
}

// PassTo is one pass-through binding of a transfer into a segment: the
// write into register Reg is carried by functional unit FU.
type PassTo struct {
	Reg, FU int
}

// PassBinding is one pass-through binding with its full transfer key.
type PassBinding struct {
	TransferKey
	FU int
}

// Binding is one complete allocation over fixed hardware.
//
// Per-segment state is dense: Copies and Pass are indexed by the
// segment index Seg(v, k), which numbers every (value, chain position)
// pair value-major, so walking them in index order visits segments in
// (value, position) order.
type Binding struct {
	A  *lifetime.Analysis
	HW *datapath.Hardware

	// OpFU assigns each arithmetic node an FU index (-1 otherwise).
	OpFU []int
	// OpSwap reverses the operand order of a commutative node (move F3).
	OpSwap []bool
	// SegReg assigns each value's chain positions their primary
	// register: SegReg[v][k].
	SegReg [][]int
	// Copies lists, per segment, the extra registers holding the value
	// at that chain position (moves R5/R6), in the order they were
	// added: reads prefer earlier copies, so the order is part of the
	// allocation.
	Copies [][]int
	// Pass lists, per destination segment, the transfers into it that
	// are bound to a pass-through FU (moves F4/F5), ascending by
	// destination register.
	Pass [][]PassTo

	// nCopies and nPass count the entries of Copies and Pass.
	nCopies, nPass int

	// segBase[v] is the segment index of value v's chain position 0;
	// segBase[len(Values)] is the number of segments. Shared by clones.
	segBase []int
	// inputIndex and outputIndex map Input and Output node IDs to
	// external port indices (-1 for other nodes). Shared by clones.
	inputIndex, outputIndex []int
	numOutputs              int
}

// New returns an unassigned binding over the given analysis and
// hardware.
func New(a *lifetime.Analysis, hw *datapath.Hardware) *Binding {
	g := a.Sched.G
	b := &Binding{
		A: a, HW: hw,
		OpFU:        make([]int, len(g.Nodes)),
		OpSwap:      make([]bool, len(g.Nodes)),
		SegReg:      make([][]int, len(a.Values)),
		segBase:     make([]int, len(a.Values)+1),
		inputIndex:  make([]int, len(g.Nodes)),
		outputIndex: make([]int, len(g.Nodes)),
	}
	for i := range b.OpFU {
		b.OpFU[i] = -1
	}
	for i := range a.Values {
		b.segBase[i+1] = b.segBase[i] + a.Values[i].Len
	}
	flat := make([]int, b.NumSegs())
	for i := range flat {
		flat[i] = -1
	}
	for i := range a.Values {
		b.SegReg[i] = flat[b.segBase[i]:b.segBase[i+1]:b.segBase[i+1]]
	}
	// Lists start empty rather than nil, as they are again after their
	// last entry goes, so equal states compare equal.
	b.Copies = make([][]int, b.NumSegs())
	b.Pass = make([][]PassTo, b.NumSegs())
	for s := range b.Copies {
		b.Copies[s], b.Pass[s] = []int{}, []PassTo{}
	}
	nIn := 0
	for i := range g.Nodes {
		b.inputIndex[i], b.outputIndex[i] = -1, -1
		switch g.Nodes[i].Op {
		case cdfg.Input:
			b.inputIndex[i] = nIn
			nIn++
		case cdfg.Output:
			b.outputIndex[i] = b.numOutputs
			b.numOutputs++
		}
	}
	return b
}

// sinks returns the dense numbering of the binding's interconnect
// sinks.
func (b *Binding) sinks() datapath.SinkSpace {
	return datapath.SinkSpace{FUs: len(b.HW.FUs), Regs: len(b.HW.Regs), Outs: b.numOutputs}
}

// Clone deep-copies the binding. The analysis, hardware and index
// tables are shared (they are immutable).
func (b *Binding) Clone() *Binding {
	nb := *b
	nb.OpFU = append([]int(nil), b.OpFU...)
	nb.OpSwap = append([]bool(nil), b.OpSwap...)
	flat := make([]int, 0, b.NumSegs())
	nb.SegReg = make([][]int, len(b.SegReg))
	for i, row := range b.SegReg {
		flat = append(flat, row...)
		nb.SegReg[i] = flat[len(flat)-len(row) : len(flat) : len(flat)]
	}
	nb.Copies = make([][]int, len(b.Copies))
	for s, cs := range b.Copies {
		nb.Copies[s] = slices.Clone(cs)
	}
	nb.Pass = make([][]PassTo, len(b.Pass))
	for s, ps := range b.Pass {
		nb.Pass[s] = slices.Clone(ps)
	}
	return &nb
}

// CopyFrom overwrites b's bound state with src's, reusing b's backing
// arrays: the search keeps its best and restart bindings this way
// instead of cloning. Both bindings must share one analysis and
// hardware.
func (b *Binding) CopyFrom(src *Binding) {
	copy(b.OpFU, src.OpFU)
	copy(b.OpSwap, src.OpSwap)
	for i, row := range src.SegReg {
		copy(b.SegReg[i], row)
	}
	for s, cs := range src.Copies {
		b.Copies[s] = append(b.Copies[s][:0], cs...)
	}
	for s, ps := range src.Pass {
		b.Pass[s] = append(b.Pass[s][:0], ps...)
	}
	b.nCopies, b.nPass = src.nCopies, src.nPass
}

// InputIndexOf returns the external port index of an Input node.
func (b *Binding) InputIndexOf(n cdfg.NodeID) int { return b.inputIndex[n] }

// OutputIndexOf returns the external port index of an Output node.
func (b *Binding) OutputIndexOf(n cdfg.NodeID) int { return b.outputIndex[n] }

// Seg returns the segment index of value v's chain position k: the
// index into Copies and Pass.
func (b *Binding) Seg(v lifetime.ValueID, k int) int { return b.segBase[v] + k }

// NumSegs returns the number of segments over all values.
func (b *Binding) NumSegs() int { return b.segBase[len(b.segBase)-1] }

// CopiesAt returns the copy registers of value v at chain position k,
// in read-preference order. The slice must not be mutated.
func (b *Binding) CopiesAt(v lifetime.ValueID, k int) []int { return b.Copies[b.Seg(v, k)] }

// PassesAt returns the pass-through bindings of transfers into value
// v's chain position k, ascending by register. The slice must not be
// mutated.
func (b *Binding) PassesAt(v lifetime.ValueID, k int) []PassTo { return b.Pass[b.Seg(v, k)] }

// PassOf returns the FU carrying transfer tk, if it is pass-bound.
func (b *Binding) PassOf(tk TransferKey) (int, bool) {
	if tk.K < 0 || tk.K >= b.A.Values[tk.V].Len {
		return 0, false
	}
	for _, p := range b.Pass[b.Seg(tk.V, tk.K)] {
		if p.Reg == tk.ToReg {
			return p.FU, true
		}
	}
	return 0, false
}

// NumPass returns the number of pass-through bindings.
func (b *Binding) NumPass() int { return b.nPass }

// Passes lists every pass-through binding in ascending transfer-key
// (value, position, register) order.
func (b *Binding) Passes() []PassBinding {
	out := make([]PassBinding, 0, b.nPass)
	for v := range b.A.Values {
		for k := 0; k < b.A.Values[v].Len; k++ {
			for _, p := range b.PassesAt(lifetime.ValueID(v), k) {
				out = append(out, PassBinding{TransferKey{lifetime.ValueID(v), k, p.Reg}, p.FU})
			}
		}
	}
	return out
}

// HoldersAt returns the registers holding value v at chain position k:
// the primary register first, then the copies in read-preference
// order. The returned slice is freshly allocated.
func (b *Binding) HoldersAt(v lifetime.ValueID, k int) []int {
	copies := b.CopiesAt(v, k)
	out := make([]int, 0, 1+len(copies))
	out = append(out, b.SegReg[v][k])
	out = append(out, copies...)
	return out
}

// numHolders returns the number of registers holding value v at chain
// position k: the primary plus its copies.
func (b *Binding) numHolders(v lifetime.ValueID, k int) int { return 1 + len(b.CopiesAt(v, k)) }

// holder returns HoldersAt(v, k)[h] without building the list.
func (b *Binding) holder(v lifetime.ValueID, k, h int) int {
	if h == 0 {
		return b.SegReg[v][k]
	}
	return b.CopiesAt(v, k)[h-1]
}

// HeldIn reports whether value v occupies register r at chain position k.
func (b *Binding) HeldIn(v lifetime.ValueID, k, r int) bool {
	if b.SegReg[v][k] == r {
		return true
	}
	for _, c := range b.CopiesAt(v, k) {
		if c == r {
			return true
		}
	}
	return false
}

// holdCount returns how many holder entries of value v at chain
// position k name register r: at most one in a legal binding.
func (b *Binding) holdCount(v lifetime.ValueID, k, r int) int {
	n := 0
	if b.SegReg[v][k] == r {
		n++
	}
	for _, c := range b.CopiesAt(v, k) {
		if c == r {
			n++
		}
	}
	return n
}

// RegOccupancy builds the register×step table of occupying values
// (NoValue when free). It errors if two values claim the same register
// in the same step.
func (b *Binding) RegOccupancy() ([][]lifetime.ValueID, error) {
	occ := grid[lifetime.ValueID](len(b.HW.Regs), b.A.StorageSteps)
	for r := range occ {
		for t := range occ[r] {
			occ[r][t] = lifetime.NoValue
		}
	}
	claim := func(r, t int, v lifetime.ValueID) error {
		if r < 0 || r >= len(b.HW.Regs) {
			return fmt.Errorf("binding: value %s uses register %d outside budget", b.A.Values[v].Name, r)
		}
		if prev := occ[r][t]; prev != lifetime.NoValue {
			if prev == v {
				return fmt.Errorf("binding: value %s stored twice in R%d at step %d", b.A.Values[v].Name, r, t)
			}
			return fmt.Errorf("binding: R%d at step %d holds both %s and %s", r, t, b.A.Values[prev].Name, b.A.Values[v].Name)
		}
		occ[r][t] = v
		return nil
	}
	for i := range b.A.Values {
		v := &b.A.Values[i]
		for k := 0; k < v.Len; k++ {
			t := v.StepAt(k, b.A.StorageSteps)
			if err := claim(b.SegReg[i][k], t, v.ID); err != nil {
				return nil, err
			}
			for _, c := range b.CopiesAt(v.ID, k) {
				if err := claim(c, t, v.ID); err != nil {
					return nil, err
				}
			}
		}
	}
	return occ, nil
}

// NoTransfer marks an FU step without a pass-through in
// FUOccupancy.PassAt.
var NoTransfer = TransferKey{V: lifetime.NoValue}

// FUOccupancy describes what each FU does at each step.
type FUOccupancy struct {
	// Issue[f][t] is the node issuing on FU f at step t (NoNode if none):
	// the initiation-interval window of each bound operator.
	Issue [][]cdfg.NodeID
	// WriteEdge[f][t] marks that an operator on f produces its result at
	// the clock edge ending step t.
	WriteEdge [][]bool
	// PassAt[f][t] is the transfer passing through f at step t
	// (NoTransfer if none).
	PassAt [][]TransferKey
}

// newFUOccupancy returns empty FU usage tables over hardware with nF
// units and a schedule of T steps.
func newFUOccupancy(nF, T int) FUOccupancy {
	occ := FUOccupancy{
		Issue:     grid[cdfg.NodeID](nF, T),
		WriteEdge: grid[bool](nF, T),
		PassAt:    grid[TransferKey](nF, T),
	}
	for f := 0; f < nF; f++ {
		for t := 0; t < T; t++ {
			occ.Issue[f][t] = cdfg.NoNode
			occ.PassAt[f][t] = NoTransfer
		}
	}
	return occ
}

// grid returns a rows×cols table whose rows share one backing array.
func grid[T any](rows, cols int) [][]T {
	flat := make([]T, rows*cols)
	g := make([][]T, rows)
	for i := range g {
		g[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return g
}

// gridEqual reports whether two tables have the same shape and cells.
func gridEqual[T comparable](a, b [][]T) bool {
	return slices.EqualFunc(a, b, slices.Equal[[]T])
}

// FUOccupancy builds the FU usage tables from scratch. It errors on
// overlapping operator windows, class mismatches and two pass-throughs
// on one unit in one step.
func (b *Binding) FUOccupancy() (*FUOccupancy, error) {
	g := b.A.Sched.G
	s := b.A.Sched
	occ := newFUOccupancy(len(b.HW.FUs), s.Steps)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if !n.Op.IsArith() {
			continue
		}
		f := b.OpFU[i]
		if f < 0 || f >= len(b.HW.FUs) {
			return nil, fmt.Errorf("binding: op %s has no FU", n.Name)
		}
		if b.HW.FUs[f].Class != sched.ClassOf(n.Op) {
			return nil, fmt.Errorf("binding: op %s (%s) bound to %s FU %d", n.Name, n.Op, b.HW.FUs[f].Class, f)
		}
		st := s.Start[i]
		for t := st; t < st+s.Delays.IIOf(n.Op); t++ {
			if prev := occ.Issue[f][t]; prev != cdfg.NoNode {
				return nil, fmt.Errorf("binding: FU %d runs both %s and %s at step %d", f, g.Nodes[prev].Name, n.Name, t)
			}
			occ.Issue[f][t] = cdfg.NodeID(i)
		}
		occ.WriteEdge[f][st+s.Delays.Of(n.Op)-1] = true
	}
	for _, pb := range b.Passes() {
		t, ok := b.passStep(pb.TransferKey, pb.FU)
		if !ok {
			continue
		}
		if prev := occ.PassAt[pb.FU][t]; prev != NoTransfer {
			return nil, fmt.Errorf("binding: FU %d passes two transfers at step %d (%v, %v)", pb.FU, t, prev, pb.TransferKey)
		}
		occ.PassAt[pb.FU][t] = pb.TransferKey
	}
	return &occ, nil
}

// transferStep returns the step during which a transfer's connections
// are exercised (the step before the destination segment, i.e. the
// write happens at the edge ending it).
func (b *Binding) transferStep(tk TransferKey) int {
	v := &b.A.Values[tk.V]
	return v.StepAt(tk.K-1, b.A.StorageSteps)
}

// passStep returns the FU-table step a pass-through of tk on f
// occupies. Only a stale binding — one naming no real transfer — can
// fall outside the FU tables; it occupies nothing.
func (b *Binding) passStep(tk TransferKey, f int) (int, bool) {
	t := b.transferStep(tk)
	return t, f >= 0 && f < len(b.HW.FUs) && t >= 0 && t < b.A.Sched.Steps
}

// FUPassFree reports whether FU f can carry a pass-through at step t
// under the occupancy tables: no operator issues there, no operator
// writes its result at the edge ending t, no other pass-through is
// bound there, and the unit is pass-capable.
func (b *Binding) FUPassFree(occ *FUOccupancy, f, t int, self TransferKey) bool {
	if !b.HW.FUs[f].CanPass {
		return false
	}
	if t < 0 || t >= b.A.Sched.Steps {
		return false
	}
	if occ.Issue[f][t] != cdfg.NoNode || occ.WriteEdge[f][t] {
		return false
	}
	if tk := occ.PassAt[f][t]; tk != NoTransfer && tk != self {
		return false
	}
	return true
}

// Check validates every legality invariant of the binding.
func (b *Binding) Check() error {
	g := b.A.Sched.G
	if _, err := b.RegOccupancy(); err != nil {
		return err
	}
	occ, err := b.FUOccupancy()
	if err != nil {
		return err
	}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if b.OpSwap[i] && !n.Op.Commutative() {
			return fmt.Errorf("binding: operand reverse on non-commutative op %s", n.Name)
		}
	}
	for _, pb := range b.Passes() {
		tk, f := pb.TransferKey, pb.FU
		if err := b.checkTransfer(tk); err != nil {
			return err
		}
		t := b.transferStep(tk)
		if !b.HW.FUs[f].CanPass {
			return fmt.Errorf("binding: pass-through on non-pass FU %d", f)
		}
		if occ.Issue[f][t] != cdfg.NoNode || occ.WriteEdge[f][t] {
			return fmt.Errorf("binding: pass-through %v on busy FU %d at step %d", tk, f, t)
		}
	}
	return nil
}

// checkTransfer verifies that tk denotes a real transfer in the current
// register assignment.
func (b *Binding) checkTransfer(tk TransferKey) error {
	if !b.isTransfer(tk) {
		v := &b.A.Values[tk.V]
		if tk.K < 1 || tk.K >= v.Len {
			return fmt.Errorf("binding: transfer %v out of value range", tk)
		}
		if !b.HeldIn(tk.V, tk.K, tk.ToReg) {
			return fmt.Errorf("binding: transfer %v targets a register not holding the value", tk)
		}
		return fmt.Errorf("binding: %v is not a transfer (value already in R%d)", tk, tk.ToReg)
	}
	return nil
}

// isTransfer reports whether tk denotes a real transfer in the current
// register assignment: ToReg holds the value at K but not at K-1.
func (b *Binding) isTransfer(tk TransferKey) bool {
	return tk.K >= 1 && tk.K < b.A.Values[tk.V].Len &&
		b.HeldIn(tk.V, tk.K, tk.ToReg) && !b.HeldIn(tk.V, tk.K-1, tk.ToReg)
}

// Transfers enumerates every register-to-register transfer implied by
// the current segment assignment, in deterministic order. Each entry is
// a candidate for pass-through binding (move F4).
func (b *Binding) Transfers() []TransferKey { return b.AppendTransfers(nil) }

// AppendTransfers appends Transfers' list to dst and returns it, so a
// caller can reuse one buffer across moves.
func (b *Binding) AppendTransfers(dst []TransferKey) []TransferKey {
	for i := range b.A.Values {
		for k := 1; k < b.A.Values[i].Len; k++ {
			dst = b.appendTransfersAt(dst, lifetime.ValueID(i), k)
		}
	}
	return dst
}

// numTransfersAt counts the transfers into value v's chain position k:
// appendTransfersAt's entries, none at position 0.
func (b *Binding) numTransfersAt(v lifetime.ValueID, k int) int {
	n := 0
	for h := 0; k > 0 && h < b.numHolders(v, k); h++ {
		if !b.HeldIn(v, k-1, b.holder(v, k, h)) {
			n++
		}
	}
	return n
}

// appendTransfersAt appends the transfers into value v's chain position
// k ≥ 1 in holder order: one per holder entry that did not hold the
// value at k-1.
func (b *Binding) appendTransfersAt(dst []TransferKey, v lifetime.ValueID, k int) []TransferKey {
	for h := 0; h < b.numHolders(v, k); h++ {
		if r := b.holder(v, k, h); !b.HeldIn(v, k-1, r) {
			dst = append(dst, TransferKey{v, k, r})
		}
	}
	return dst
}

// AddCopy records a copy of value v's chain position k in register r.
// Legality (register free) is the caller's responsibility.
func (b *Binding) AddCopy(v lifetime.ValueID, k, r int) {
	s := b.Seg(v, k)
	b.Copies[s] = append(b.Copies[s], r)
	b.nCopies++
}

// RemoveCopy deletes the copy of (v, k) in register r, reporting whether
// it existed.
func (b *Binding) RemoveCopy(v lifetime.ValueID, k, r int) bool {
	s := b.Seg(v, k)
	for i, c := range b.Copies[s] {
		if c == r {
			b.removeCopyAt(s, i)
			return true
		}
	}
	return false
}

// removeCopyAt deletes the i-th copy of segment s, keeping the order of
// the rest.
func (b *Binding) removeCopyAt(s, i int) {
	cs := b.Copies[s]
	b.Copies[s] = append(cs[:i], cs[i+1:]...)
	b.nCopies--
}

// insertCopyAt re-inserts register r as the i-th copy of segment s.
func (b *Binding) insertCopyAt(s, i, r int) {
	cs := append(b.Copies[s], 0)
	copy(cs[i+1:], cs[i:])
	cs[i] = r
	b.Copies[s] = cs
	b.nCopies++
}

// NumCopies returns the total number of copy segments.
func (b *Binding) NumCopies() int { return b.nCopies }

// SetPass binds transfer tk to pass-through FU f, returning the FU it
// was bound to before, if any. Legality is the caller's responsibility
// (Check validates it); tk must name a chain position of its value.
func (b *Binding) SetPass(tk TransferKey, f int) (old int, existed bool) {
	if tk.K < 0 || tk.K >= b.A.Values[tk.V].Len {
		panic(fmt.Sprintf("binding: pass-through %v outside its value's chain", tk))
	}
	s := b.Seg(tk.V, tk.K)
	ps := b.Pass[s]
	i := 0
	for i < len(ps) && ps[i].Reg < tk.ToReg {
		i++
	}
	if i < len(ps) && ps[i].Reg == tk.ToReg {
		old = ps[i].FU
		ps[i].FU = f
		return old, true
	}
	ps = append(ps, PassTo{})
	copy(ps[i+1:], ps[i:])
	ps[i] = PassTo{Reg: tk.ToReg, FU: f}
	b.Pass[s] = ps
	b.nPass++
	return 0, false
}

// UnbindPass removes the pass-through binding of tk, returning the FU
// it was bound to and whether it existed.
func (b *Binding) UnbindPass(tk TransferKey) (int, bool) {
	if tk.K < 0 || tk.K >= b.A.Values[tk.V].Len {
		return 0, false
	}
	s := b.Seg(tk.V, tk.K)
	ps := b.Pass[s]
	for i, p := range ps {
		if p.Reg == tk.ToReg {
			b.Pass[s] = append(ps[:i], ps[i+1:]...)
			b.nPass--
			return p.FU, true
		}
	}
	return 0, false
}
