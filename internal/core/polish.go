package core

import (
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
// unless it improves.
func polish(b *binding.Binding, cost binding.Cost, opts Options) (*binding.Binding, binding.Cost, *datapath.Interconnect, error) {
	best := b.Clone()
	tx, err := binding.NewTx(best)
	if err != nil {
		return b, cost, nil, nil
	}
	bestCost := cost

	// try closes the candidate move currently open on tx: commit when
	// it strictly improves, roll back otherwise. A delta-evaluation
	// error means the candidate was illegal and is discarded.
	var paranoidErr error
	try := func() bool {
		candCost, err := tx.DeltaCost()
		if opts.Paranoid && paranoidErr == nil {
			paranoidErr = checkDelta(best, candCost, err)
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
	for sweep := 0; sweep < 20; sweep++ {
		improved := false

		// Whole-value moves (R4 over every target register).
		for v := range best.A.Values {
			vid := best.A.Values[v].ID
			for r := range best.HW.Regs {
				if best.SegReg[v][0] == r {
					continue
				}
				tx.Begin()
				for k := range best.SegReg[v] {
					tx.RemoveCopy(vid, k, r)
					tx.SetSegReg(vid, k, r)
				}
				if tx.OccLegal() != nil {
					tx.Rollback()
					continue
				}
				tx.PrunePass()
				if try() {
					improved = true
				}
			}
		}

		// Suffix moves (the extended model's cheapest value-migration
		// primitive: one new transfer), over every split point and
		// target register. The legality pre-probe reads the live
		// occupancy before the candidate opens, so it always sees the
		// current (committed or rolled-back) state.
		if opts.EnableSegments {
			occ, err := tx.Occ()
			if err == nil {
				for v := range best.A.Values {
					val := &best.A.Values[v]
					for k := 1; k < val.Len; k++ {
						for r := range best.HW.Regs {
							if best.SegReg[v][k] == r {
								continue
							}
							// Target must be free (or already ours) over
							// the whole suffix.
							ok := true
							for kk := k; kk < val.Len; kk++ {
								t := val.StepAt(kk, best.A.StorageSteps)
								if h := occ[r][t]; h != lifetime.NoValue && h != lifetime.ValueID(v) {
									ok = false
									break
								}
							}
							if !ok {
								continue
							}
							tx.Begin()
							for kk := k; kk < val.Len; kk++ {
								tx.RemoveCopy(val.ID, kk, r)
								tx.SetSegReg(val.ID, kk, r)
							}
							if tx.OccLegal() != nil {
								tx.Rollback()
								continue
							}
							tx.PrunePass()
							if try() {
								improved = true
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
				tx.Begin()
				tx.SetOpFU(cdfg.NodeID(i), f)
				tx.PrunePass()
				if try() {
					improved = true
					break
				}
			}
			if n.Op.Commutative() {
				tx.Begin()
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
				for _, tk := range best.Transfers() {
					if _, bound := best.PassOf(tk); bound {
						continue
					}
					t := best.A.Values[tk.V].StepAt(tk.K-1, best.A.StorageSteps)
					for f := range best.HW.FUs {
						if !best.FUPassFree(occ, f, t, tk) {
							continue
						}
						tx.Begin()
						tx.SetPass(tk, f)
						if try() {
							improved = true
							break
						}
					}
				}
			}
			for _, pb := range best.Passes() {
				tx.Begin()
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
						tx.Begin()
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
		return nil, binding.Cost{}, nil, paranoidErr
	}
	bestIC, _, err := best.Eval()
	if err != nil {
		return best, bestCost, nil, nil
	}
	return best, bestCost, bestIC, nil
}
