// Package core implements the paper's primary contribution: data path
// allocation under the extended (SALSA) binding model, explored by
// iterative improvement over the move set of Table 1 (F1–F5 on
// functional-unit bindings, R1–R6 on register bindings).
//
// The same engine also runs the traditional binding model — segments,
// copies and pass-throughs disabled — which serves as the comparison
// baseline and as an ablation of each extension.
package core

import (
	"fmt"
	"math/rand"

	"salsa/internal/binding"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
)

// Options controls one allocation run.
type Options struct {
	// Seed drives the deterministic pseudo-random move selection.
	Seed int64

	// MaxTrials bounds the number of improvement trials; StallTrials
	// consecutive trials without improvement terminate early (§4: three).
	MaxTrials   int
	StallTrials int
	// MovesPerTrial is the number of moves attempted per trial.
	MovesPerTrial int

	// EnableSegments allows different segments of a value to live in
	// different registers (moves R1/R2 and piecewise initial binding).
	// Off: the traditional binding model's whole-lifetime registers.
	EnableSegments bool
	// EnablePass allows slack nodes to bind to idle FUs (moves F4/F5).
	EnablePass bool
	// EnableSplit allows value copies (moves R5/R6).
	EnableSplit bool

	// Anneal switches acceptance to a simulated-annealing rule, the
	// approach the paper tried first and found inferior; kept as an
	// ablation.
	Anneal bool

	// Paranoid re-validates the binding after every accepted move and
	// asserts that the delta cost of every candidate the search or
	// polish evaluates, accepted or not, equals a from-scratch
	// evaluation, and that the incrementally kept occupancy equals a
	// rebuild whenever a search move or evaluated polish candidate
	// commits or rolls back (tests and the crosscheck oracle only;
	// slows allocation down).
	Paranoid bool

	// Initial, when set, warm-starts improvement from an existing legal
	// binding (e.g. a traditional-model result) instead of running the
	// constructive initial allocation. Because the extended model's
	// space contains the traditional one, warm-starting guarantees the
	// extended result never loses to the baseline it started from.
	Initial *binding.Binding
}

// SALSAOptions returns the full extended-binding-model configuration.
func SALSAOptions(seed int64) Options {
	return Options{
		Seed:           seed,
		MaxTrials:      40,
		StallTrials:    3,
		MovesPerTrial:  1500,
		EnableSegments: true,
		EnablePass:     true,
		EnableSplit:    true,
	}
}

// TraditionalOptions returns the traditional-binding-model baseline:
// one register per value for its whole lifetime, no copies, no
// pass-throughs; the remaining moves (F1–F3, value exchange/move) still
// explore the classical design space.
func TraditionalOptions(seed int64) Options {
	o := SALSAOptions(seed)
	o.EnableSegments = false
	o.EnablePass = false
	o.EnableSplit = false
	return o
}

// Result is a finished allocation.
type Result struct {
	Binding *binding.Binding
	Cost    binding.Cost
	// MergedMux is the equivalent 2-to-1 multiplexer count after the
	// compatible-multiplexer merging post-pass — the number the paper's
	// tables report.
	MergedMux int
	IC        *datapath.Interconnect

	Trials        int
	MovesTried    int
	MovesAccepted int
	InitialCost   binding.Cost

	// Stop records why the search ended: natural termination, context
	// cancellation, or incumbent pruning (see Control).
	Stop StopReason
}

// Allocate runs the full flow: constructive initial allocation followed
// by iterative improvement, returning the best allocation found.
func Allocate(a *lifetime.Analysis, hw *datapath.Hardware, opts Options) (*Result, error) {
	return AllocateControlled(a, hw, opts, nil)
}

// AllocateControlled is Allocate with runtime hooks: cancellation via
// ctl.Ctx (the best-so-far allocation is returned, not discarded) and
// the trial-boundary callback portfolio engines use for incumbent
// pruning and progress telemetry. A nil ctl behaves exactly like
// Allocate.
func AllocateControlled(a *lifetime.Analysis, hw *datapath.Hardware, opts Options, ctl *Control) (*Result, error) {
	if ctx := ctl.ctx(); ctx != nil {
		// Cancelled before any legal allocation exists: nothing to
		// return under anytime semantics.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: allocation not started: %w", err)
		}
	}
	var b *binding.Binding
	if opts.Initial != nil {
		b = opts.Initial.Clone()
	} else {
		b = binding.New(a, hw)
		if err := initialAllocation(b, opts); err != nil {
			return nil, fmt.Errorf("core: initial allocation: %w", err)
		}
	}
	if err := b.Check(); err != nil {
		return nil, fmt.Errorf("core: initial allocation illegal: %w", err)
	}
	_, initCost, err := b.Eval()
	if err != nil {
		return nil, fmt.Errorf("core: initial allocation unevaluable: %w", err)
	}
	res, err := improve(b, initCost, opts, ctl)
	if err != nil {
		return nil, err
	}
	res.InitialCost = initCost
	return res, nil
}

// newRNG isolates the randomness source used across the allocator.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
