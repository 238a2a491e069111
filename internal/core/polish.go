package core

import (
	"context"

	"salsa/internal/binding"
	"salsa/internal/cdfg"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
	"salsa/internal/sched"
)

// polish runs deterministic downhill sweeps over the systematic
// single-move neighborhood of the allocation — every whole-value
// re-registration, every operator re-assignment, every operand
// reversal, and every pass-through bind/unbind — applying each
// improving move immediately and repeating until a full sweep finds
// nothing. The randomized search handles the combinatorial moves; this
// pass guarantees the cheap single-move optima are never left on the
// table.
//
// Candidates run as transactions on a private working clone: each one
// is applied in place, costed from its dirty sinks, and rolled back
// unless it improves. A non-nil tx is reset onto the clone, so the
// search's transaction serves its polish; nil makes a new one.
//
// A non-nil ctx is polled every cancelCheckStride candidates. Once it
// is done, the sweep stops and polish returns the best binding so far
// and reports that it was cut; an uncancelled polish is the same with
// or without ctx.
func polish(ctx context.Context, b *binding.Binding, cost binding.Cost, opts Options, tx *binding.Tx) (*binding.Binding, binding.Cost, *datapath.Interconnect, bool, error) {
	best := b.Clone()
	var err error
	if tx == nil {
		tx, err = binding.NewTx(best)
	} else {
		err = tx.Reset(best)
	}
	if err != nil {
		return b, cost, nil, false, nil
	}
	bestCost := cost

	// open begins the next candidate move on tx, or reports false once
	// ctx is done, which ends the polish.
	candidates, cut := 0, false
	open := func() bool {
		if ctx != nil && candidates%cancelCheckStride == 0 && ctx.Err() != nil {
			cut = true
			return false
		}
		candidates++
		tx.Begin()
		return true
	}

	// try closes the candidate move currently open on tx: commit when
	// it strictly improves, roll back otherwise. A delta-evaluation
	// error means the candidate was illegal and is discarded.
	var paranoidErr error
	try := func() bool {
		candCost, err := tx.DeltaCost()
		if opts.Paranoid && paranoidErr == nil {
			paranoidErr = checkDelta(tx, candCost, err)
		}
		ok := err == nil && candCost.Total < bestCost.Total
		if ok {
			tx.Commit()
			bestCost = candCost
		} else {
			tx.Rollback()
		}
		if opts.Paranoid && paranoidErr == nil {
			paranoidErr = tx.CheckOccupancy()
		}
		return ok
	}

	g := best.A.Sched.G
	var copies []int
	var transfers []binding.TransferKey
sweeps:
	for sweep := 0; sweep < 20; sweep++ {
		improved := false

		// Whole-value moves (R4 over every target register), then suffix
		// moves (the extended model's cheapest value-migration primitive:
		// one new transfer) over every split point and target register.
		// Each candidate opens only when its target is free over the
		// moved steps, a probe of the live occupancy, which always shows
		// the current (committed or rolled-back) state. tryTail reports
		// false when the polish is cut.
		if occ, err := tx.Occ(); err == nil {
			tryTail := func(val *lifetime.Value, k, r int) bool {
				if best.SegReg[val.ID][k] == r || !regFreeFrom(occ, val, k, r, best.A.StorageSteps) {
					return true
				}
				if !open() {
					return false
				}
				moveTail(tx, val, k, r)
				tx.PrunePass()
				if try() {
					improved = true
				}
				return true
			}
			for v := range best.A.Values {
				for r := range best.HW.Regs {
					if !tryTail(&best.A.Values[v], 0, r) {
						break sweeps
					}
				}
			}
			if opts.EnableSegments {
				for v := range best.A.Values {
					for k := 1; k < best.A.Values[v].Len; k++ {
						for r := range best.HW.Regs {
							if !tryTail(&best.A.Values[v], k, r) {
								break sweeps
							}
						}
					}
				}
			}
		}

		// Operator moves (F2 over every compatible FU) and reversals (F3).
		for i := range g.Nodes {
			n := &g.Nodes[i]
			if !n.Op.IsArith() {
				continue
			}
			occ, err := tx.FUOcc()
			if err != nil {
				break
			}
			st := best.A.Sched.Start[i]
			ii := best.A.Sched.Delays.IIOf(n.Op)
			for _, f := range best.HW.FUsOfClass(sched.ClassOf(n.Op)) {
				if f == best.OpFU[i] {
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
				if !open() {
					break sweeps
				}
				tx.SetOpFU(cdfg.NodeID(i), f)
				tx.PrunePass()
				if try() {
					improved = true
					break
				}
			}
			if n.Op.Commutative() {
				if !open() {
					break sweeps
				}
				tx.FlipSwap(cdfg.NodeID(i))
				if try() {
					improved = true
				}
			}
		}

		// Pass-through binds (F4) and unbinds (F5). The bind sweep probes
		// one occupancy snapshot taken before it starts, so binds it
		// commits do not steer its later probes.
		if opts.EnablePass {
			occ, err := best.FUOccupancy()
			if err == nil {
				transfers = tx.AppendTransfers(transfers[:0])
				for _, tk := range transfers {
					if _, bound := best.PassOf(tk); bound {
						continue
					}
					t := best.A.Values[tk.V].StepAt(tk.K-1, best.A.StorageSteps)
					for f := range best.HW.FUs {
						if !best.FUPassFree(occ, f, t, tk) {
							continue
						}
						if !open() {
							break sweeps
						}
						tx.SetPass(tk, f)
						if try() {
							improved = true
							break
						}
					}
				}
			}
			for _, pb := range best.Passes() {
				if !open() {
					break sweeps
				}
				tx.UnbindPass(pb.TransferKey)
				if try() {
					improved = true
				}
			}
		}

		// Copy removals (R6): copies that stopped paying for themselves.
		if opts.EnableSplit {
			for v := range best.A.Values {
				val := &best.A.Values[v]
				for k := 0; k < val.Len; k++ {
					copies = append(copies[:0], best.CopiesAt(val.ID, k)...)
					for _, r := range copies {
						if !open() {
							break sweeps
						}
						tx.RemoveCopy(val.ID, k, r)
						tx.PrunePass()
						if try() {
							improved = true
						}
					}
				}
			}
		}

		if !improved {
			break
		}
	}
	if paranoidErr != nil {
		return nil, binding.Cost{}, nil, false, paranoidErr
	}
	bestIC, _, err := best.Eval()
	if err != nil {
		return best, bestCost, nil, cut, nil
	}
	return best, bestCost, bestIC, cut, nil
}
