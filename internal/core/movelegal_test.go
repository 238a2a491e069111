package core

import (
	"testing"

	"salsa/internal/binding"
	"salsa/internal/workloads"
)

// TestMoveKindsPreserveLegality is the move-legality property test: for
// every Table-1 move kind, applying the move to a legal EWF binding
// must yield a binding that passes binding.Check and evaluates. The
// walk adopts some mutated bindings as the new base so later applies
// start from states deep in the search space, not just the initial
// allocation.
func TestMoveKindsPreserveLegality(t *testing.T) {
	g := workloads.EWF()
	a, hw := setup(t, g, 3, 2, false)
	opts := withDefaults(SALSAOptions(7))
	base := binding.New(a, hw, binding.DefaultConfig())
	if err := initialAllocation(base, opts); err != nil {
		t.Fatal(err)
	}
	if err := base.Check(); err != nil {
		t.Fatalf("initial allocation illegal: %v", err)
	}

	rng := newRNG(opts.Seed)
	mv := newMover(base, opts, rng)
	fired := make(map[moveKind]int)
	tx := binding.NewScratchTx(base)

	// Warm the base with a mixed walk: the initial allocation holds
	// every value in one register, so transfer-dependent moves (F4/F5)
	// have no instance until segment moves have created transfers.
	for i := 0; i < 1500; i++ {
		kind := mv.pickKind()
		nb := base.Clone()
		tx.Retarget(nb)
		if !mv.apply(tx, kind) {
			continue
		}
		fired[kind]++
		if err := nb.Check(); err != nil {
			t.Fatalf("%s produced an illegal binding during warm-up: %v", kind, err)
		}
		base = nb
	}

	for kind := moveKind(0); kind < numMoveKinds; kind++ {
		cur := base.Clone()
		for i := 0; i < 200; i++ {
			nb := cur.Clone()
			tx.Retarget(nb)
			if !mv.apply(tx, kind) {
				continue
			}
			fired[kind]++
			if err := nb.Check(); err != nil {
				t.Fatalf("%s produced an illegal binding on apply %d: %v", kind, fired[kind], err)
			}
			if _, _, err := nb.Eval(); err != nil {
				t.Fatalf("%s produced an unevaluable binding on apply %d: %v", kind, fired[kind], err)
			}
			if fired[kind]%3 == 0 {
				cur = nb // walk deeper so later applies see varied states
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
// long random walk, checking legality after every successful apply —
// cross-kind interactions (a split followed by an exchange followed by
// a merge) are where stale-state bugs hide.
func TestMixedWalkStaysLegal(t *testing.T) {
	g := workloads.EWF()
	a, hw := setup(t, g, 2, 1, false)
	opts := withDefaults(SALSAOptions(11))
	cur := binding.New(a, hw, binding.DefaultConfig())
	if err := initialAllocation(cur, opts); err != nil {
		t.Fatal(err)
	}
	rng := newRNG(opts.Seed)
	mv := newMover(cur, opts, rng)
	tx := binding.NewScratchTx(cur)
	applied := 0
	for i := 0; i < 600; i++ {
		nb := cur.Clone()
		tx.Retarget(nb)
		if !mv.apply(tx, mv.pickKind()) {
			continue
		}
		applied++
		if err := nb.Check(); err != nil {
			t.Fatalf("mixed walk: illegal binding after %d applies: %v", applied, err)
		}
		cur = nb
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
