package datapath

import "fmt"

// NetScratch is a reusable single-sink fanin accumulator with exactly
// Interconnect's AddUse semantics: distinct sources accumulate, a
// per-step need table detects two different sources required in one
// step, and constant sources are need-tracked but cost-free. The
// transaction layer (internal/binding.Tx) replays one sink's uses
// through it to recompute that sink's cost entry.
//
// The need table is indexed by step and stamped with a generation that
// Reset advances, so Add finds a step's need in O(1) and Reset clears
// nothing. Reset starts every sink, the first one included.
type NetScratch struct {
	srcs []Source
	// paid counts the non-constant sources in srcs.
	paid int
	// needSrc[t] is the source required at step t when needGen[t]
	// equals gen.
	gen     uint32
	needGen []uint32
	needSrc []Source
}

// Reset clears the scratch for the next sink, keeping capacity.
func (ns *NetScratch) Reset() {
	ns.srcs, ns.paid = ns.srcs[:0], 0
	ns.gen++
	if ns.gen == 0 {
		// The stamp wrapped: entries of an old generation could alias.
		clear(ns.needGen)
		ns.gen = 1
	}
}

// Has reports whether the source is already part of the fanin — the
// query behind the evaluator's greedy source resolution.
func (ns *NetScratch) Has(src Source) bool {
	for _, s := range ns.srcs {
		if s == src {
			return true
		}
	}
	return false
}

// Add records one use of src at step, mirroring Interconnect.AddUse's
// conflict rule: a sink that would need two different sources in the
// same step is a binding bug. Steps are non-negative, as Interconnect's
// need table requires too.
func (ns *NetScratch) Add(sink Sink, src Source, step int) error {
	if step >= len(ns.needGen) {
		n := max(2*len(ns.needGen), step+1)
		ns.needGen = append(ns.needGen, make([]uint32, n-len(ns.needGen))...)
		ns.needSrc = append(ns.needSrc, make([]Source, n-len(ns.needSrc))...)
	}
	if ns.needGen[step] == ns.gen {
		if prev := ns.needSrc[step]; prev != src {
			return fmt.Errorf("datapath: sink %v needs both %v and %v at step %d", sink, prev, src, step)
		}
		// Same source again in the same step: nothing new.
		return nil
	}
	ns.needGen[step], ns.needSrc[step] = ns.gen, src
	for i := range ns.srcs {
		if ns.srcs[i] == src {
			return nil
		}
	}
	ns.srcs = append(ns.srcs, src)
	if src.Kind != SrcConst {
		ns.paid++
	}
	return nil
}

// MuxCost returns the sink's equivalent 2-to-1 multiplexer
// contribution: cost-bearing (non-constant) fanin minus one, clamped
// at zero.
func (ns *NetScratch) MuxCost() int { return max(ns.paid-1, 0) }
