package core

import (
	"testing"

	"salsa/internal/binding"
	"salsa/internal/workloads"
)

// applyChecked runs one move of the given kind through tx the way the
// search does: Begin, apply, then — when the move applies — a legality
// check of the mutated binding and its delta cost, which must equal a
// full evaluation. An applied move is left open for the caller to
// Commit or Rollback; one that does not apply is rolled back.
func applyChecked(t *testing.T, tx *binding.Tx, mv *mover, kind moveKind) bool {
	t.Helper()
	tx.Begin()
	if !mv.apply(tx, kind) {
		tx.Rollback()
		return false
	}
	if err := tx.B().Check(); err != nil {
		t.Fatalf("%s produced an illegal binding: %v", kind, err)
	}
	delta, err := tx.DeltaCost()
	if err != nil {
		t.Fatalf("%s produced an unevaluable binding: %v", kind, err)
	}
	if err := checkDelta(tx, delta, nil); err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return true
}

// TestMoveKindsPreserveLegality is the move-legality property test: for
// every Table-1 move kind, applying the move to a legal EWF binding
// must yield a binding that passes binding.Check and whose delta cost
// equals a full evaluation. The walk commits some moves and rolls the
// others back, so later applies start from states deep in the search
// space, not just the initial allocation.
func TestMoveKindsPreserveLegality(t *testing.T) {
	g := workloads.EWF()
	a, hw := setup(t, g, 3, 2, false)
	opts := SALSAOptions(7)
	b := binding.New(a, hw)
	if err := initialAllocation(b, opts); err != nil {
		t.Fatal(err)
	}
	if err := b.Check(); err != nil {
		t.Fatalf("initial allocation illegal: %v", err)
	}

	rng := newRNG(opts.Seed)
	mv := newMover(b, opts, rng)
	fired := make(map[moveKind]int)
	tx, err := binding.NewTx(b)
	if err != nil {
		t.Fatal(err)
	}

	// Warm the binding with a mixed walk: the initial allocation holds
	// every value in one register, so transfer-dependent moves (F4/F5)
	// have no instance until segment moves have created transfers.
	for i := 0; i < 1500; i++ {
		kind := mv.pickKind()
		if applyChecked(t, tx, mv, kind) {
			fired[kind]++
			tx.Commit()
		}
	}

	for kind := moveKind(0); kind < numMoveKinds; kind++ {
		for i := 0; i < 200; i++ {
			if !applyChecked(t, tx, mv, kind) {
				continue
			}
			fired[kind]++
			if fired[kind]%3 == 0 {
				tx.Commit() // walk deeper so later applies see varied states
			} else {
				tx.Rollback()
			}
		}
	}
	for kind := moveKind(0); kind < numMoveKinds; kind++ {
		if fired[kind] == 0 {
			t.Errorf("%s never applied; the property was not exercised for it", kind)
		}
	}
}

// TestMixedWalkStaysLegal interleaves all enabled move kinds in one
// long random walk, checking legality and the delta cost after every
// successful apply — cross-kind interactions (a split followed by an
// exchange followed by a merge) are where stale-state bugs hide.
func TestMixedWalkStaysLegal(t *testing.T) {
	g := workloads.EWF()
	a, hw := setup(t, g, 2, 1, false)
	opts := SALSAOptions(11)
	b := binding.New(a, hw)
	if err := initialAllocation(b, opts); err != nil {
		t.Fatal(err)
	}
	rng := newRNG(opts.Seed)
	mv := newMover(b, opts, rng)
	tx, err := binding.NewTx(b)
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	for i := 0; i < 600; i++ {
		if applyChecked(t, tx, mv, mv.pickKind()) {
			applied++
			tx.Commit()
		}
	}
	if applied < 50 {
		t.Errorf("mixed walk only applied %d moves out of 600 attempts", applied)
	}
}

// TestParanoidSearchEWF runs a short full search with Options.Paranoid,
// which re-runs binding.Check after every accepted move and after the
// polish tail — the search aborts with an error on the first illegal
// acceptance.
func TestParanoidSearchEWF(t *testing.T) {
	g := workloads.EWF()
	a, hw := setup(t, g, 2, 1, false)
	res, err := Allocate(a, hw, quickOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Binding.Check(); err != nil {
		t.Fatalf("final binding illegal: %v", err)
	}
	if res.MovesAccepted == 0 {
		t.Error("paranoid search accepted no moves; the legality property was not exercised")
	}
}

// TestParanoidSearchCases runs short Paranoid searches on the
// apply/undo cases (EWF, DCT, three random graphs): every candidate a
// search delta-evaluates, accepted or not, is compared with a full
// evaluation before rollback, and every acceptance is re-checked.
func TestParanoidSearchCases(t *testing.T) {
	for name, build := range txUndoCases(t) {
		t.Run(name, func(t *testing.T) {
			a, hw := build(t)
			o := quickOpts(5)
			o.MaxTrials = 3
			res, err := Allocate(a, hw, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.MovesTried == 0 {
				t.Error("paranoid search tried no moves")
			}
		})
	}
}
