package core

import (
	"fmt"
	"sort"

	"salsa/internal/binding"
	"salsa/internal/cdfg"
	"salsa/internal/lifetime"
	"salsa/internal/sched"
)

// initialAllocation implements the paper's constructive starting point
// (§4): operators are bound to functional units first-available per
// control step; loop input/output values are bound first (consistency
// across iterations falls out of the cyclic segment chain), then values
// in maximum-demand steps, then the rest; each value keeps all segments
// in one register unless no contiguous space exists, in which case it
// is split across available registers (extended model only).
func initialAllocation(b *binding.Binding, opts Options) error {
	if err := assignFUs(b); err != nil {
		return err
	}
	return assignRegisters(b, opts)
}

// assignFUs binds operators first-available: steps in order, operators
// within a step by node ID, each to the lowest-indexed free unit of its
// class.
func assignFUs(b *binding.Binding) error {
	g := b.A.Sched.G
	s := b.A.Sched
	busy := make([][]bool, len(b.HW.FUs))
	for f := range busy {
		busy[f] = make([]bool, s.Steps)
	}
	type opAt struct {
		id cdfg.NodeID
		st int
	}
	var ops []opAt
	for i := range g.Nodes {
		if g.Nodes[i].Op.IsArith() {
			ops = append(ops, opAt{cdfg.NodeID(i), s.Start[i]})
		}
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].st != ops[j].st {
			return ops[i].st < ops[j].st
		}
		return ops[i].id < ops[j].id
	})
	for _, o := range ops {
		n := &g.Nodes[o.id]
		ii := s.Delays.IIOf(n.Op)
		bound := false
		for _, f := range b.HW.FUsOfClass(sched.ClassOf(n.Op)) {
			free := true
			for t := o.st; t < o.st+ii; t++ {
				if busy[f][t] {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			b.OpFU[o.id] = f
			for t := o.st; t < o.st+ii; t++ {
				busy[f][t] = true
			}
			bound = true
			break
		}
		if !bound {
			return fmt.Errorf("no free %s unit for op %s at step %d (budget too small for this schedule)",
				sched.ClassOf(n.Op), n.Name, o.st)
		}
	}
	return nil
}

// assignRegisters binds value segments. Order: loop-carried values
// first, then by decreasing demand at the birth step, then longer
// lifetimes first, then ID.
func assignRegisters(b *binding.Binding, opts Options) error {
	a := b.A
	order := make([]lifetime.ValueID, len(a.Values))
	for i := range order {
		order[i] = lifetime.ValueID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		vi, vj := &a.Values[order[i]], &a.Values[order[j]]
		si, sj := vi.State != cdfg.NoNode, vj.State != cdfg.NoNode
		if si != sj {
			return si
		}
		di, dj := a.Demand[vi.Birth], a.Demand[vj.Birth]
		if di != dj {
			return di > dj
		}
		if vi.Len != vj.Len {
			return vi.Len > vj.Len
		}
		return order[i] < order[j]
	})

	// occ[r][t]: register r occupied at step t.
	occ := make([][]bool, len(b.HW.Regs))
	for r := range occ {
		occ[r] = make([]bool, a.StorageSteps)
	}
	// Connection bookkeeping for the paper's "avoid adding more
	// interconnections" heuristic: which FUs already write each
	// register, and which FU input ports already read it.
	writers := make([]map[int]bool, len(b.HW.Regs))
	readers := make([]map[[2]int]bool, len(b.HW.Regs))
	for r := range writers {
		writers[r] = make(map[int]bool)
		readers[r] = make(map[[2]int]bool)
	}
	g := b.A.Sched.G
	producerFU := func(v *lifetime.Value) int {
		if g.Nodes[v.Producer].Op.IsArith() {
			return b.OpFU[v.Producer]
		}
		return -1
	}
	readPorts := func(v *lifetime.Value) [][2]int {
		var ps [][2]int
		for _, rd := range v.Reads {
			rn := &g.Nodes[rd.Consumer]
			if !rn.Op.IsArith() {
				continue
			}
			ps = append(ps, [2]int{b.OpFU[rd.Consumer], rd.Port})
		}
		return ps
	}
	record := func(v *lifetime.Value, ports [][2]int, r int) {
		if f := producerFU(v); f >= 0 {
			writers[r][f] = true
		}
		for _, p := range ports {
			readers[r][p] = true
		}
	}

	for _, vid := range order {
		v := &a.Values[vid]
		ports := readPorts(v)
		// Contiguous placement: among registers free across the whole
		// lifetime, pick the one already connected to this value's
		// producer and readers (fewest new connections).
		bestR, bestScore := -1, -1
		for r := range occ {
			free := true
			for k := 0; k < v.Len; k++ {
				if occ[r][v.StepAt(k, a.StorageSteps)] {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			score := 0
			if f := producerFU(v); f >= 0 && writers[r][f] {
				score += 2 // reuses the FU->register connection
			}
			for _, p := range ports {
				if readers[r][p] {
					score++ // reuses a register->FU-port connection
				}
			}
			if score > bestScore {
				bestR, bestScore = r, score
			}
		}
		if bestR >= 0 {
			for k := 0; k < v.Len; k++ {
				b.SegReg[vid][k] = bestR
				occ[bestR][v.StepAt(k, a.StorageSteps)] = true
			}
			record(v, ports, bestR)
			continue
		}
		if !opts.EnableSegments {
			return fmt.Errorf("no register can hold value %s contiguously under the traditional model (budget %d); add registers or enable segmentation",
				v.Name, len(b.HW.Regs))
		}
		// Piecewise: walk the chain, keeping the current register while
		// free, switching to any free one when blocked. Demand never
		// exceeds the budget, so a free register exists at every step.
		cur := -1
		for k := 0; k < v.Len; k++ {
			t := v.StepAt(k, a.StorageSteps)
			if cur >= 0 && !occ[cur][t] {
				b.SegReg[vid][k] = cur
				occ[cur][t] = true
				continue
			}
			cur = -1
			for r := range occ {
				if !occ[r][t] {
					cur = r
					break
				}
			}
			if cur < 0 {
				return fmt.Errorf("register demand exceeds budget at step %d placing %s (budget %d < demand %d)",
					t, v.Name, len(b.HW.Regs), a.Demand[t])
			}
			b.SegReg[vid][k] = cur
			occ[cur][t] = true
		}
	}
	return nil
}
