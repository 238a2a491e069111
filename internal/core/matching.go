package core

import (
	"fmt"
	"math"
	"sort"

	"salsa/internal/binding"
	"salsa/internal/cdfg"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
	"salsa/internal/match"
	"salsa/internal/sched"
)

// MatchingAllocate performs a one-shot constructive allocation in the
// traditional binding model using weighted bipartite matching, the
// approach class of the paper's reference [13] (Huang et al., "Data
// Path Allocation Based on Bipartite Weighted Matching"). Control steps
// are processed in order; at each step the operators issuing there are
// matched to free functional units, and the values born there are
// matched to registers free across their whole lifetimes, with edge
// weights rewarding the reuse of connections the partial datapath
// already has. There is no iterative improvement: the result is the
// matching baseline the paper's search-based approaches are measured
// against.
func MatchingAllocate(a *lifetime.Analysis, hw *datapath.Hardware) (*Result, error) {
	b := binding.New(a, hw)
	g := a.Sched.G
	s := a.Sched

	// Incrementally tracked connections of the partial datapath.
	portConn := make(map[[2]int]map[datapath.Source]bool) // (fu,port) -> sources
	regWriter := make(map[int]map[int]bool)               // reg -> FU ids writing it
	fuBusy := make([][]bool, len(hw.FUs))
	for f := range fuBusy {
		fuBusy[f] = make([]bool, s.Steps)
	}
	regOcc := make([][]bool, len(hw.Regs))
	for r := range regOcc {
		regOcc[r] = make([]bool, a.StorageSteps)
	}
	addPort := func(f, port int, src datapath.Source) {
		k := [2]int{f, port}
		if portConn[k] == nil {
			portConn[k] = make(map[datapath.Source]bool)
		}
		portConn[k][src] = true
	}

	// operandSource resolves an operand to a source if already known.
	operandSource := func(arg cdfg.NodeID) (datapath.Source, bool) {
		an := &g.Nodes[arg]
		switch {
		case an.Op == cdfg.Const:
			return datapath.Source{Kind: datapath.SrcConst, Index: int(arg)}, true
		case an.Op == cdfg.Input && a.ValueOf[arg] == lifetime.NoValue:
			return datapath.Source{Kind: datapath.SrcInput, Index: b.InputIndexOf(arg)}, true
		default:
			vid := a.ValueOf[arg]
			if vid == lifetime.NoValue {
				return datapath.Source{}, false
			}
			if r := b.SegReg[vid][0]; r >= 0 {
				return datapath.Source{Kind: datapath.SrcReg, Index: r}, true
			}
			return datapath.Source{}, false
		}
	}

	// Values by birth step for the register phase.
	bornAt := make([][]lifetime.ValueID, a.StorageSteps)
	for i := range a.Values {
		bornAt[a.Values[i].Birth] = append(bornAt[a.Values[i].Birth], lifetime.ValueID(i))
	}

	ninf := math.Inf(-1)
	for t := 0; t < a.StorageSteps; t++ {
		// Phase 1: operators issuing at step t, per class.
		if t < s.Steps {
			for c := sched.Class(0); c < sched.NumClasses; c++ {
				var ops []cdfg.NodeID
				for i := range g.Nodes {
					n := &g.Nodes[i]
					if n.Op.IsArith() && sched.ClassOf(n.Op) == c && s.Start[i] == t {
						ops = append(ops, cdfg.NodeID(i))
					}
				}
				if len(ops) == 0 {
					continue
				}
				sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
				fus := hw.FUsOfClass(c)
				w := make([][]float64, len(ops))
				for oi, op := range ops {
					w[oi] = make([]float64, len(fus))
					n := &g.Nodes[op]
					ii := s.Delays.IIOf(n.Op)
					for fi, f := range fus {
						free := true
						for u := t; u < t+ii; u++ {
							if fuBusy[f][u] {
								free = false
								break
							}
						}
						if !free {
							w[oi][fi] = ninf
							continue
						}
						score := 0.0
						for port, arg := range n.Args {
							if src, ok := operandSource(arg); ok && portConn[[2]int{f, port}][src] {
								score++
							}
						}
						w[oi][fi] = score
					}
				}
				assign, _ := match.Assign(w)
				for oi, fi := range assign {
					if fi < 0 {
						return nil, fmt.Errorf("core: matching: no %s unit for op %s at step %d", c, g.Nodes[ops[oi]].Name, t)
					}
					f := fus[fi]
					op := ops[oi]
					//lint:mutguard constructive FU assignment; the finished binding is Check-validated before it leaves this function
					b.OpFU[op] = f
					n := &g.Nodes[op]
					for u := t; u < t+s.Delays.IIOf(n.Op); u++ {
						fuBusy[f][u] = true
					}
					for port, arg := range n.Args {
						if src, ok := operandSource(arg); ok {
							addPort(f, port, src)
						}
					}
				}
			}
		}

		// Phase 2: values born at step t matched to whole-lifetime
		// registers.
		vals := bornAt[t]
		if len(vals) == 0 {
			continue
		}
		w := make([][]float64, len(vals))
		for vi, vid := range vals {
			v := &a.Values[vid]
			w[vi] = make([]float64, len(hw.Regs))
			pf := -1
			if g.Nodes[v.Producer].Op.IsArith() {
				pf = b.OpFU[v.Producer]
			}
			for r := range hw.Regs {
				free := true
				for k := 0; k < v.Len; k++ {
					if regOcc[r][v.StepAt(k, a.StorageSteps)] {
						free = false
						break
					}
				}
				if !free {
					w[vi][r] = ninf
					continue
				}
				score := 0.0
				if pf >= 0 && regWriter[r][pf] {
					score += 2 // reuses the producer's FU->register wire
				}
				src := datapath.Source{Kind: datapath.SrcReg, Index: r}
				for _, rd := range v.Reads {
					rn := &g.Nodes[rd.Consumer]
					if !rn.Op.IsArith() {
						continue
					}
					if rf := b.OpFU[rd.Consumer]; rf >= 0 && portConn[[2]int{rf, rd.Port}][src] {
						score++ // an already-bound reader has this wire
					}
				}
				if len(regWriter[r]) > 0 {
					score += 0.25 // mild preference for registers in use
				}
				w[vi][r] = score
			}
		}
		assign, _ := match.Assign(w)
		for vi, r := range assign {
			if r < 0 {
				return nil, fmt.Errorf("core: matching: no register holds value %s for its whole lifetime (budget %d)",
					a.Values[vals[vi]].Name, len(hw.Regs))
			}
			vid := vals[vi]
			v := &a.Values[vid]
			for k := 0; k < v.Len; k++ {
				//lint:mutguard constructive register assignment; the finished binding is Check-validated before it leaves this function
				b.SegReg[vid][k] = r
				regOcc[r][v.StepAt(k, a.StorageSteps)] = true
			}
			if pf := v.Producer; g.Nodes[pf].Op.IsArith() {
				if regWriter[r] == nil {
					regWriter[r] = make(map[int]bool)
				}
				regWriter[r][b.OpFU[pf]] = true
			}
		}
	}

	if err := b.Check(); err != nil {
		return nil, fmt.Errorf("core: matching produced illegal binding: %w", err)
	}
	ic, cost, err := b.Eval()
	if err != nil {
		return nil, err
	}
	return &Result{
		Binding:     b,
		Cost:        cost,
		IC:          ic,
		MergedMux:   ic.MergedMuxCost(),
		InitialCost: cost,
	}, nil
}
