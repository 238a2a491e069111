package core

import (
	"reflect"
	"testing"

	"salsa/internal/binding"
	"salsa/internal/cdfg"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
	"salsa/internal/randgraph"
	"salsa/internal/workloads"
)

// txUndoCases is the table for the apply/undo property: two benchmark
// workloads plus three random scheduled CDFGs (a cyclic loop body, a
// larger straight-line graph, and a tight cyclic case), so the
// transaction layer is exercised on both hand-built and generated
// problem shapes.
func txUndoCases(t *testing.T) map[string]func(*testing.T) (*lifetime.Analysis, *datapath.Hardware) {
	t.Helper()
	cases := map[string]func(*testing.T) (*lifetime.Analysis, *datapath.Hardware){
		"ewf": func(t *testing.T) (*lifetime.Analysis, *datapath.Hardware) {
			return setup(t, workloads.EWF(), 3, 2, false)
		},
		"dct": func(t *testing.T) (*lifetime.Analysis, *datapath.Hardware) {
			return setup(t, workloads.DCT(), 2, 2, false)
		},
	}
	for _, seed := range []int64{3, 4, 5} {
		seed := seed
		cases[randgraph.Generate(seed, randgraph.Params{}).Graph.Name] =
			func(t *testing.T) (*lifetime.Analysis, *datapath.Hardware) {
				cs := randgraph.Generate(seed, randgraph.Params{})
				g := cs.Graph
				d := cdfg.DefaultDelays(cs.PipelinedMul)
				a, lim, err := lifetime.MinFUAnalysis(g, d, cs.Steps)
				if err != nil {
					t.Fatalf("seed %d became infeasible: %v", seed, err)
				}
				var inputs []string
				for i := range g.Nodes {
					if g.Nodes[i].Op == cdfg.Input {
						inputs = append(inputs, g.Nodes[i].Name)
					}
				}
				return a, datapath.NewHardware(lim, a.MinRegs+cs.ExtraRegs+1, inputs, true)
			}
	}
	return cases
}

// TestTxApplyUndoRestoresBinding is the transaction layer's central
// property, tabled over every move kind on every case: applying a move
// through a binding.Tx and rolling it back must restore the binding to
// exactly its pre-move state (reflect.DeepEqual against a clone taken
// before the move) and every cost-table entry to its sink's full
// evaluation, and while the move is applied its delta cost must equal
// a from-scratch evaluation. Aborted moves (the mover mutated, hit an
// illegality, and returned false) must roll back just as exactly —
// that is the path a search rejection takes.
func TestTxApplyUndoRestoresBinding(t *testing.T) {
	for name, build := range txUndoCases(t) {
		t.Run(name, func(t *testing.T) {
			a, hw := build(t)
			opts := SALSAOptions(13)
			cur := binding.New(a, hw)
			if err := initialAllocation(cur, opts); err != nil {
				t.Fatal(err)
			}
			rng := newRNG(opts.Seed)
			mv := newMover(cur, opts, rng)
			tx, err := binding.NewTx(cur)
			if err != nil {
				t.Fatal(err)
			}

			// commit runs one randomly-kinded move to completion so the
			// walk reaches states with transfers, copies and passes; the
			// cost table is advanced through DeltaCost exactly as the
			// search does before accepting.
			commit := func(kind moveKind) {
				tx.Begin()
				if !mv.apply(tx, kind) {
					tx.Rollback()
					return
				}
				if _, err := tx.DeltaCost(); err != nil {
					t.Fatalf("warm walk: %v", err)
				}
				tx.Commit()
			}
			for i := 0; i < 800; i++ {
				commit(mv.pickKind())
			}

			fired := make(map[moveKind]int)
			for kind := moveKind(0); kind < numMoveKinds; kind++ {
				for att := 0; att < 300 && fired[kind] < 20; att++ {
					pre := cur.Clone()
					preCost := tx.Cost()
					tx.Begin()
					applied := mv.apply(tx, kind)
					if applied {
						fired[kind]++
						cost, err := tx.DeltaCost()
						if err != nil {
							t.Fatalf("%s: delta evaluation failed: %v", kind, err)
						}
						if _, full, err := cur.Eval(); err != nil {
							t.Fatalf("%s: applied binding unevaluable: %v", kind, err)
						} else if full != cost {
							t.Fatalf("%s: delta cost %+v != full evaluation %+v", kind, cost, full)
						}
					}
					tx.Rollback()
					if !reflect.DeepEqual(cur, pre) {
						t.Fatalf("%s: rollback (applied=%v) did not restore the binding:\n pre: %+v\n cur: %+v",
							kind, applied, pre, cur)
					}
					if got := tx.Cost(); got != preCost {
						t.Fatalf("%s: rollback left cost table at %+v, want %+v", kind, got, preCost)
					}
					ic, _, err := cur.Eval()
					if err != nil {
						t.Fatalf("%s: rolled-back binding unevaluable: %v", kind, err)
					}
					if err := tx.CheckSinks(ic); err != nil {
						t.Fatalf("%s: rollback (applied=%v): %v", kind, applied, err)
					}
					if applied && fired[kind]%4 == 0 {
						// Walk deeper so later applies see varied states.
						commit(kind)
					}
				}
				if fired[kind] == 0 {
					// Small generated graphs legitimately lack instances
					// of some kinds (no commutative op, no multi-segment
					// value); the workload cases check full coverage.
					t.Logf("%s never fired on %s", kind, name)
				}
			}
			if name == "ewf" || name == "dct" {
				for kind := moveKind(0); kind < numMoveKinds; kind++ {
					if fired[kind] == 0 {
						t.Errorf("%s never applied on %s; the property was not exercised for it", kind, name)
					}
				}
			}
		})
	}
}
