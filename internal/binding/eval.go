package binding

import (
	"fmt"

	"salsa/internal/cdfg"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
	"salsa/internal/sched"
)

// Cost is the weighted allocation cost (§4 of the paper): a sum of
// functional-unit, register and interconnect terms. MuxCost is the
// pre-merging equivalent 2-to-1 multiplexer count used during iterative
// improvement; the merged count is reported separately after the final
// allocation is chosen.
type Cost struct {
	FUsUsed  int
	FUArea   int
	RegsUsed int
	MuxCost  int
	Total    int
}

// Eval builds the point-to-point interconnect implied by the binding
// and returns it with the cost. Reads of multi-copy values and transfer
// sources are resolved greedily: an existing connection is preferred
// over adding a new one, in deterministic order, implementing the
// paper's rationale for value copies ("a connection … can be eliminated
// at the expense of an added connection" wherever that wins globally).
func (b *Binding) Eval() (*datapath.Interconnect, Cost, error) {
	ic := datapath.NewInterconnect(b.sinks(), b.A.StorageSteps)
	g := b.A.Sched.G
	s := b.A.Sched

	// pickHolder chooses the register serving a read or transfer at
	// chain position k of v, preferring one already connected to sink.
	pickHolder := func(v lifetime.ValueID, k int, sink datapath.Sink) int {
		primary := b.SegReg[v][k]
		if ic.HasSource(sink, datapath.Source{Kind: datapath.SrcReg, Index: primary}) {
			return primary
		}
		for _, c := range b.CopiesAt(v, k) {
			if ic.HasSource(sink, datapath.Source{Kind: datapath.SrcReg, Index: c}) {
				return c
			}
		}
		return primary
	}

	// Operand reads.
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if !n.Op.IsArith() {
			continue
		}
		f := b.OpFU[i]
		if f < 0 {
			return nil, Cost{}, fmt.Errorf("binding: op %s unbound", n.Name)
		}
		step := s.Start[i]
		for port := 0; port < 2; port++ {
			argPort := port
			if b.OpSwap[i] {
				argPort = 1 - port
			}
			arg := n.Args[argPort]
			sink := datapath.Sink{Kind: datapath.SinkFUPort, Index: f, Port: port}
			src, err := b.operandSource(arg, step, sink, pickHolder)
			if err != nil {
				return nil, Cost{}, err
			}
			if err := ic.AddUse(datapath.Use{Src: src, Sink: sink, Step: step}); err != nil {
				return nil, Cost{}, err
			}
		}
	}

	// Output port reads.
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Op != cdfg.Output {
			continue
		}
		step := s.Start[i]
		if g.Cyclic {
			step %= s.Steps
		}
		sink := datapath.Sink{Kind: datapath.SinkOutput, Index: b.outputIndex[cdfg.NodeID(i)]}
		src, err := b.operandSource(n.Args[0], step, sink, pickHolder)
		if err != nil {
			return nil, Cost{}, err
		}
		if err := ic.AddUse(datapath.Use{Src: src, Sink: sink, Step: step}); err != nil {
			return nil, Cost{}, err
		}
	}

	// Value writes and transfers.
	for i := range b.A.Values {
		v := &b.A.Values[i]
		// Birth writes: every holder at chain position 0 is loaded from
		// the producer.
		var birthSrc datapath.Source
		if pn := &g.Nodes[v.Producer]; pn.Op == cdfg.Input {
			birthSrc = datapath.Source{Kind: datapath.SrcInput, Index: b.inputIndex[v.Producer]}
		} else {
			pf := b.OpFU[v.Producer]
			if pf < 0 {
				return nil, Cost{}, fmt.Errorf("binding: producer of %s unbound", v.Name)
			}
			birthSrc = datapath.Source{Kind: datapath.SrcFU, Index: pf}
		}
		wstep := b.A.WriteStep(v)
		for h := 0; h < b.numHolders(v.ID, 0); h++ {
			r := b.holder(v.ID, 0, h)
			if r < 0 {
				return nil, Cost{}, fmt.Errorf("binding: value %s has unassigned segment 0", v.Name)
			}
			sink := datapath.Sink{Kind: datapath.SinkReg, Index: r}
			if err := ic.AddUse(datapath.Use{Src: birthSrc, Sink: sink, Step: wstep}); err != nil {
				return nil, Cost{}, err
			}
		}
		// Holds and transfers for the rest of the chain.
		for k := 1; k < v.Len; k++ {
			tstep := v.StepAt(k-1, b.A.StorageSteps)
			for h := 0; h < b.numHolders(v.ID, k); h++ {
				r := b.holder(v.ID, k, h)
				if r < 0 {
					return nil, Cost{}, fmt.Errorf("binding: value %s has unassigned segment %d", v.Name, k)
				}
				if b.HeldIn(v.ID, k-1, r) {
					continue // register holds; no transfer
				}
				regSink := datapath.Sink{Kind: datapath.SinkReg, Index: r}
				if f, viaPass := b.PassOf(TransferKey{v.ID, k, r}); viaPass {
					fuIn := datapath.Sink{Kind: datapath.SinkFUPort, Index: f, Port: 0}
					from := pickHolder(v.ID, k-1, fuIn)
					if err := ic.AddUse(datapath.Use{Src: datapath.Source{Kind: datapath.SrcReg, Index: from}, Sink: fuIn, Step: tstep}); err != nil {
						return nil, Cost{}, err
					}
					if err := ic.AddUse(datapath.Use{Src: datapath.Source{Kind: datapath.SrcFU, Index: f}, Sink: regSink, Step: tstep}); err != nil {
						return nil, Cost{}, err
					}
				} else {
					from := pickHolder(v.ID, k-1, regSink)
					if err := ic.AddUse(datapath.Use{Src: datapath.Source{Kind: datapath.SrcReg, Index: from}, Sink: regSink, Step: tstep}); err != nil {
						return nil, Cost{}, err
					}
				}
			}
		}
	}

	return ic, b.costOf(ic), nil
}

// operandSource resolves the source feeding a read of node arg at the
// given step.
func (b *Binding) operandSource(arg cdfg.NodeID, step int, sink datapath.Sink, pickHolder func(lifetime.ValueID, int, datapath.Sink) int) (datapath.Source, error) {
	g := b.A.Sched.G
	an := &g.Nodes[arg]
	switch {
	case an.Op == cdfg.Const:
		return datapath.Source{Kind: datapath.SrcConst, Index: int(arg)}, nil
	case an.Op == cdfg.Input && b.A.ValueOf[arg] == lifetime.NoValue:
		return datapath.Source{Kind: datapath.SrcInput, Index: b.inputIndex[arg]}, nil
	default:
		vid := b.A.ValueOf[arg]
		if vid == lifetime.NoValue {
			return datapath.Source{}, fmt.Errorf("binding: node %s is not a storage value", an.Name)
		}
		v := &b.A.Values[vid]
		k, ok := v.LiveAt(step, b.A.StorageSteps)
		if !ok {
			return datapath.Source{}, fmt.Errorf("binding: %s read at step %d outside live range", v.Name, step)
		}
		r := pickHolder(vid, k, sink)
		if r < 0 {
			return datapath.Source{}, fmt.Errorf("binding: value %s has unassigned segment %d", v.Name, k)
		}
		return datapath.Source{Kind: datapath.SrcReg, Index: r}, nil
	}
}

// costOf folds an interconnect into the weighted cost.
func (b *Binding) costOf(ic *datapath.Interconnect) Cost {
	var c Cost
	fuUsed := make([]bool, len(b.HW.FUs))
	for i, f := range b.OpFU {
		if b.A.Sched.G.Nodes[i].Op.IsArith() && f >= 0 {
			fuUsed[f] = true
		}
	}
	for _, ps := range b.Pass {
		for _, p := range ps {
			fuUsed[p.FU] = true
		}
	}
	for f, used := range fuUsed {
		if !used {
			continue
		}
		c.FUsUsed++
		if b.HW.FUs[f].Class == sched.ClassMul {
			c.FUArea += WfuMul
		} else {
			c.FUArea += WfuALU
		}
	}
	regUsed := make([]bool, len(b.HW.Regs))
	for i := range b.SegReg {
		for _, r := range b.SegReg[i] {
			if r >= 0 {
				regUsed[r] = true
			}
		}
	}
	for _, cs := range b.Copies {
		for _, r := range cs {
			regUsed[r] = true
		}
	}
	for _, u := range regUsed {
		if u {
			c.RegsUsed++
		}
	}
	c.MuxCost = ic.MuxCost()
	c.Total = c.FUArea + Wreg*c.RegsUsed + Wmux*c.MuxCost
	return c
}
