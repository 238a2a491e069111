package core

import (
	"context"
	"fmt"
	"math"

	"salsa/internal/binding"
)

// cancelCheckStride is how many moves pass between context polls; a
// move costs at most a few dirty-sink replays, so checking every few
// moves keeps cancellation latency in the microseconds without
// measurable overhead on the hot path.
const cancelCheckStride = 32

// The acceptance rule's fixed parameters. uphillQuota cost-increasing
// moves, each worsening the cost by at most the mux weight plus two,
// are accepted at the start of each trial. The annealing ablation
// starts at temperature annealT0 and cools geometrically by annealCool
// per trial.
const (
	uphillQuota = 6
	annealT0    = 8.0
	annealCool  = 0.85
)

// improve runs the paper's iterative improvement scheme (§4): several
// trials, each attempting a fixed number of random moves; cost-
// decreasing moves are always kept, a fixed quota of cost-increasing
// moves is accepted at the start of each trial (moving the search to a
// new neighborhood), after which only downhill moves are taken. The
// best allocation seen anywhere is recorded and returned. The search
// stops after StallTrials successive trials without improvement.
//
// Moves run as in-place transactions: the mover mutates the current
// binding through a binding.Tx, the cost delta is recomputed from only
// the sinks the move perturbed, and rejected moves roll back.
//
// With opts.Anneal the acceptance rule switches to simulated annealing
// (Metropolis criterion with geometric cooling by annealCool across
// trials) — the approach the paper reports as inferior; it is
// retained as an ablation.
//
// ctl supplies anytime semantics: context cancellation is polled
// between moves and the TrialEnd hook may stop the search at any trial
// boundary; in both cases the best-so-far allocation is polished and
// returned rather than discarded. The polish polls the context too, so
// a deadline that passes during it cuts it short and the result
// reports StopCancelled.
func improve(b *binding.Binding, initCost binding.Cost, opts Options, ctl *Control) (*Result, error) {
	rng := newRNG(opts.Seed)
	mv := newMover(b, opts, rng)
	ctx := ctl.ctx()

	// cur is the walk's binding and best the best seen; trial restarts
	// and improvements copy between the two instead of cloning.
	cur := b
	curCost := initCost
	best := b.Clone()
	bestCost := initCost

	tx, err := binding.NewTx(cur)
	if err != nil {
		return nil, fmt.Errorf("core: initial allocation unevaluable: %w", err)
	}

	stop := StopNatural
	trials, tried, accepted := 0, 0, 0
	stall := 0
	temp := annealT0
	maxUp := binding.Wmux + 2
search:
	for trial := 0; trial < opts.MaxTrials; trial++ {
		trials++
		if trial > 0 {
			// Each trial restarts its walk from the best allocation so
			// the uphill quota explores around it instead of drifting.
			cur.CopyFrom(best)
			curCost = bestCost
			if err := tx.Reset(cur); err != nil {
				return nil, fmt.Errorf("core: trial restart unevaluable: %w", err)
			}
		}
		uphillLeft := uphillQuota
		improved := false
		for i := 0; i < opts.MovesPerTrial; i++ {
			if ctx != nil && i%cancelCheckStride == 0 && ctx.Err() != nil {
				stop = StopCancelled
				break search
			}
			tried++
			kind := mv.pickKind()

			tx.Begin()
			if !mv.apply(tx, kind) {
				tx.Rollback()
				if opts.Paranoid {
					if err := checkOcc(tx, kind); err != nil {
						return nil, err
					}
				}
				continue
			}
			cost, err := tx.DeltaCost()
			if opts.Paranoid {
				// On every evaluated candidate, the incrementally
				// maintained cost must equal a from-scratch evaluation.
				if perr := checkDelta(tx, cost, err); perr != nil {
					return nil, fmt.Errorf("core: move %v: %w", kind, perr)
				}
			}
			if err != nil {
				// A move produced an unevaluable binding: a bug, not a
				// search dead end.
				return nil, fmt.Errorf("core: move produced illegal binding: %w", err)
			}

			accept := false
			switch {
			case cost.Total <= curCost.Total:
				accept = true
			case opts.Anneal:
				delta := float64(cost.Total - curCost.Total)
				accept = temp > 0 && rng.Float64() < math.Exp(-delta/temp)
			case uphillLeft > 0 && cost.Total-curCost.Total <= maxUp:
				uphillLeft--
				accept = true
			}
			if !accept {
				tx.Rollback()
				if opts.Paranoid {
					if err := checkOcc(tx, kind); err != nil {
						return nil, err
					}
				}
				continue
			}
			tx.Commit()
			if opts.Paranoid {
				if err := cur.Check(); err != nil {
					return nil, fmt.Errorf("core: accepted illegal binding: %w", err)
				}
				if err := checkOcc(tx, kind); err != nil {
					return nil, err
				}
			}
			accepted++
			curCost = cost
			if cost.Total < bestCost.Total {
				best.CopyFrom(cur)
				bestCost = cost
				improved = true
			}
		}
		if opts.Anneal {
			temp *= annealCool
		}
		if ctl.trialEnd(trial, best, bestCost, improved, tried, accepted) {
			stop = StopPruned
			break
		}
		if improved {
			stall = 0
		} else {
			stall++
			if stall >= opts.StallTrials {
				break
			}
		}
	}

	res, err := finalize(ctx, best, bestCost, opts, tx)
	if err != nil {
		return nil, err
	}
	res.Trials = trials
	res.MovesTried = tried
	res.MovesAccepted = accepted
	if res.Stop != StopCancelled {
		res.Stop = stop
	}
	return res, nil
}

// Finalize applies the deterministic downhill polish over the
// systematic single-move neighborhood to a best-so-far binding and
// packages it as a Result with the merged multiplexer count — exactly
// the tail every search run ends with. It is exported so that a
// portfolio reduction can rebuild the canonical result of a search
// truncated at a trial boundary (see internal/engine) and obtain the
// same bytes a live truncation at that boundary would have produced.
func Finalize(best *binding.Binding, bestCost binding.Cost, opts Options) (*Result, error) {
	return finalize(nil, best, bestCost, opts, nil)
}

// finalize is Finalize polishing through tx, the search's transaction,
// so the polish reuses its tables; nil makes a new one. A non-nil ctx
// can cut the polish short, and the result then reports StopCancelled.
func finalize(ctx context.Context, best *binding.Binding, bestCost binding.Cost, opts Options, tx *binding.Tx) (*Result, error) {
	best, bestCost, bestIC, cut, err := polish(ctx, best, bestCost, opts, tx)
	if err != nil {
		return nil, err
	}
	if bestIC == nil {
		// polish leaves the IC nil only when the input binding did not
		// evaluate, which a legal search state never hits.
		var err error
		if bestIC, bestCost, err = best.Eval(); err != nil {
			return nil, fmt.Errorf("core: finalize: %w", err)
		}
	}
	if opts.Paranoid {
		if err := best.Check(); err != nil {
			return nil, fmt.Errorf("core: polish produced illegal binding: %w", err)
		}
	}
	res := &Result{
		Binding:   best,
		Cost:      bestCost,
		IC:        bestIC,
		MergedMux: bestIC.MergedMuxCost(),
	}
	if cut {
		res.Stop = StopCancelled
	}
	return res, nil
}

// checkOcc is the Paranoid check after a search move commits or rolls
// back: the transaction's occupancy must equal a from-scratch rebuild.
func checkOcc(tx *binding.Tx, kind moveKind) error {
	if err := tx.CheckOccupancy(); err != nil {
		return fmt.Errorf("core: move %v: %w", kind, err)
	}
	return nil
}

// checkDelta is the Paranoid cross-check of one delta-evaluated
// candidate against a full evaluation of the transaction's binding:
// both must fail, or both succeed with identical costs and with every
// cost-table entry equal to its sink's contribution in the evaluation.
func checkDelta(tx *binding.Tx, delta binding.Cost, derr error) error {
	ic, full, err := tx.B().Eval()
	switch {
	case derr != nil && err == nil:
		return fmt.Errorf("delta evaluation failed (%v) but full evaluation succeeds", derr)
	case derr == nil && err != nil:
		return fmt.Errorf("delta evaluation succeeded but full evaluation fails: %w", err)
	case derr == nil && delta != full:
		return fmt.Errorf("delta cost %+v != full evaluation %+v", delta, full)
	case derr == nil:
		return tx.CheckSinks(ic)
	}
	return nil
}
