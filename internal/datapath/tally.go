package datapath

import "fmt"

// CostTable is the incremental companion of Interconnect: it tracks,
// per sink (one physical multiplexer location), the equivalent 2-to-1
// multiplexer contribution of that sink's fanin, together with the
// running total. The binding transaction layer (internal/binding.Tx)
// keeps it in sync with the binding by replaying only the sinks a move
// perturbs, so a candidate's interconnect cost is a handful of
// per-sink recomputations instead of a full Interconnect rebuild.
//
// PerSink and TotalMux are exported so the salsalint mutguard analyzer
// can enforce the mutation boundary: they may only be written inside
// internal/datapath and internal/binding (the transaction layer).
// Everyone else reads them through Get/Total.
type CostTable struct {
	// NumFUs, NumRegs and NumOuts fix the dense sink index space,
	// mirroring Interconnect's sized constructor.
	NumFUs, NumRegs, NumOuts int
	// PerSink holds each sink's current mux contribution, indexed by
	// Index. Writes outside the mutguard boundary are a lint error.
	PerSink []int32
	// TotalMux is the sum of PerSink: the binding's pre-merging
	// equivalent 2-to-1 multiplexer count.
	TotalMux int
}

// NewCostTable returns a zeroed table over the given hardware
// dimensions.
func NewCostTable(numFUs, numRegs, numOuts int) *CostTable {
	return &CostTable{
		NumFUs: numFUs, NumRegs: numRegs, NumOuts: numOuts,
		PerSink: make([]int32, 2*numFUs+numRegs+numOuts),
	}
}

// Len returns the number of sinks in the dense index space.
func (ct *CostTable) Len() int { return len(ct.PerSink) }

// Index maps a sink into the dense table; -1 when out of range. The
// layout matches Interconnect's sized indexing: FU ports first (two per
// unit), then registers, then output ports.
func (ct *CostTable) Index(s Sink) int {
	switch s.Kind {
	case SinkFUPort:
		if s.Index < ct.NumFUs && s.Port < 2 {
			return 2*s.Index + s.Port
		}
	case SinkReg:
		if s.Index < ct.NumRegs {
			return 2*ct.NumFUs + s.Index
		}
	case SinkOutput:
		if s.Index < ct.NumOuts {
			return 2*ct.NumFUs + ct.NumRegs + s.Index
		}
	}
	return -1
}

// SinkOf is the inverse of Index.
func (ct *CostTable) SinkOf(idx int) Sink {
	switch {
	case idx < 2*ct.NumFUs:
		return Sink{Kind: SinkFUPort, Index: idx / 2, Port: idx % 2}
	case idx < 2*ct.NumFUs+ct.NumRegs:
		return Sink{Kind: SinkReg, Index: idx - 2*ct.NumFUs}
	default:
		return Sink{Kind: SinkOutput, Index: idx - 2*ct.NumFUs - ct.NumRegs}
	}
}

// Get returns the sink's current contribution.
func (ct *CostTable) Get(idx int) int { return int(ct.PerSink[idx]) }

// Set updates one sink's contribution, adjusts the total and returns
// the previous contribution.
func (ct *CostTable) Set(idx, c int) int {
	old := int(ct.PerSink[idx])
	ct.PerSink[idx] = int32(c)
	ct.TotalMux += c - old
	return old
}

// Total returns the pre-merging equivalent 2-to-1 multiplexer count.
func (ct *CostTable) Total() int { return ct.TotalMux }

// Zero clears every contribution and the total, keeping the backing
// array for reuse.
func (ct *CostTable) Zero() {
	for i := range ct.PerSink {
		ct.PerSink[i] = 0
	}
	ct.TotalMux = 0
}

// NetScratch is a reusable single-sink fanin accumulator with exactly
// Interconnect's AddUse semantics: distinct sources accumulate, a
// per-step need table detects two different sources required in one
// step, and constant sources are need-tracked but cost-free. The
// transaction layer replays one sink's uses through it to recompute
// that sink's CostTable entry.
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
