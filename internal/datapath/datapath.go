// Package datapath models the register-transfer hardware an allocation
// targets: functional-unit and register instances, and the
// point-to-point interconnect style the paper uses for cost evaluation
// (every module input is a multiplexer over its distinct sources; an
// input with k sources costs k-1 equivalent 2-to-1 multiplexers).
package datapath

import (
	"fmt"
	"sort"

	"salsa/internal/sched"
)

// FU is one functional-unit instance.
type FU struct {
	ID    int
	Class sched.Class
	Name  string
	// CanPass marks the unit as usable for No-Op pass-through transfers.
	CanPass bool
}

// Register is one register instance.
type Register struct {
	ID   int
	Name string
}

// Hardware is the set of instances an allocation binds to.
type Hardware struct {
	FUs    []FU
	Regs   []Register
	Inputs []string // external input port names

	// fusByClass caches FU indices per class.
	fusByClass [sched.NumClasses][]int
}

// NewHardware builds a hardware set with the given per-class FU budget
// and register budget. passALU controls whether ALU instances may
// implement pass-throughs (the paper's experiments use the adders).
func NewHardware(limits sched.Limits, regs int, inputs []string, passALU bool) *Hardware {
	hw := &Hardware{Inputs: inputs}
	for c := sched.Class(0); c < sched.NumClasses; c++ {
		for i := 0; i < limits[c]; i++ {
			fu := FU{
				ID:      len(hw.FUs),
				Class:   c,
				Name:    fmt.Sprintf("%s%d", c, i),
				CanPass: c == sched.ClassALU && passALU,
			}
			hw.fusByClass[c] = append(hw.fusByClass[c], fu.ID)
			hw.FUs = append(hw.FUs, fu)
		}
	}
	for i := 0; i < regs; i++ {
		hw.Regs = append(hw.Regs, Register{ID: i, Name: fmt.Sprintf("R%d", i)})
	}
	return hw
}

// FUsOfClass returns the FU indices of the given class.
func (hw *Hardware) FUsOfClass(c sched.Class) []int { return hw.fusByClass[c] }

// SourceKind enumerates connection drivers.
type SourceKind int

const (
	// SrcFU is a functional-unit output.
	SrcFU SourceKind = iota
	// SrcReg is a register output.
	SrcReg
	// SrcInput is an external input port.
	SrcInput
	// SrcConst is a constant operand; cost-free in the interconnect
	// model, matching the paper's treatment of coefficient multipliers.
	SrcConst
)

// Source identifies one connection driver.
type Source struct {
	Kind  SourceKind
	Index int // FU ID, register ID, input index, or Const node ID
}

// String renders the source for reports.
func (s Source) String() string {
	switch s.Kind {
	case SrcFU:
		return fmt.Sprintf("fu%d", s.Index)
	case SrcReg:
		return fmt.Sprintf("R%d", s.Index)
	case SrcInput:
		return fmt.Sprintf("in%d", s.Index)
	default:
		return fmt.Sprintf("const%d", s.Index)
	}
}

// SinkKind enumerates connection destinations.
type SinkKind int

const (
	// SinkFUPort is a functional-unit input port (Port 0 or 1).
	SinkFUPort SinkKind = iota
	// SinkReg is a register input.
	SinkReg
	// SinkOutput is an external output port.
	SinkOutput
)

// Sink identifies one connection destination (one physical multiplexer
// location in the point-to-point style).
type Sink struct {
	Kind  SinkKind
	Index int // FU ID, register ID, or output index
	Port  int // operand port for SinkFUPort, else 0
}

// String renders the sink for reports.
func (s Sink) String() string {
	switch s.Kind {
	case SinkFUPort:
		return fmt.Sprintf("fu%d.%c", s.Index, 'a'+byte(s.Port))
	case SinkReg:
		return fmt.Sprintf("R%d.in", s.Index)
	default:
		return fmt.Sprintf("out%d", s.Index)
	}
}

// Use is one exercised connection: source drives sink during step.
type Use struct {
	Src  Source
	Sink Sink
	Step int
}

// SinkSpace numbers the sinks of one hardware set densely: the two
// input ports of each FU in unit order, then the register inputs, then
// the output ports. Interconnect's net table, and binding.Tx's cost
// entries and dirty marks, all index sinks by it.
type SinkSpace struct{ FUs, Regs, Outs int }

// Len returns the number of sinks.
func (sp SinkSpace) Len() int { return 2*sp.FUs + sp.Regs + sp.Outs }

// Index returns the sink's index; -1 when it lies outside the
// hardware.
func (sp SinkSpace) Index(s Sink) int {
	switch s.Kind {
	case SinkFUPort:
		if s.Index < sp.FUs && s.Port < 2 {
			return 2*s.Index + s.Port
		}
	case SinkReg:
		if s.Index < sp.Regs {
			return 2*sp.FUs + s.Index
		}
	case SinkOutput:
		if s.Index < sp.Outs {
			return 2*sp.FUs + sp.Regs + s.Index
		}
	}
	return -1
}

// Sink is the inverse of Index.
func (sp SinkSpace) Sink(idx int) Sink {
	switch {
	case idx < 2*sp.FUs:
		return Sink{Kind: SinkFUPort, Index: idx / 2, Port: idx % 2}
	case idx < 2*sp.FUs+sp.Regs:
		return Sink{Kind: SinkReg, Index: idx - 2*sp.FUs}
	default:
		return Sink{Kind: SinkOutput, Index: idx - 2*sp.FUs - sp.Regs}
	}
}

// Interconnect aggregates uses into per-sink multiplexer requirements.
// The per-sink tables are dense arrays over the hardware's SinkSpace:
// the allocator evaluates tens of thousands of candidate bindings, so
// the accumulator is the hot path.
type Interconnect struct {
	space SinkSpace
	steps int
	dense []int32 // sink index -> nets index + 1 (0 = absent)
	nets  []net
	order []Sink
}

type net struct {
	sink Sink
	// srcs holds the distinct sources; fanins are tiny, so linear scans
	// beat hashing.
	srcs []Source
	// needSrc[t] is the source required at step t when needSet[t].
	needSrc []Source
	needSet []bool
}

// NewInterconnect returns an empty accumulator over the sinks of
// space, sizing each sink's need table for the given step count.
func NewInterconnect(space SinkSpace, steps int) *Interconnect {
	return &Interconnect{space: space, steps: steps, dense: make([]int32, space.Len())}
}

// netFor returns the sink's net, creating it if asked. Callers must
// not hold the returned pointer across later AddUse calls (the backing
// slice may grow).
func (ic *Interconnect) netFor(s Sink, create bool) *net {
	di := ic.space.Index(s)
	if di < 0 {
		return nil
	}
	if ic.dense[di] == 0 {
		if !create {
			return nil
		}
		ic.nets = append(ic.nets, net{sink: s})
		ic.order = append(ic.order, s)
		ic.dense[di] = int32(len(ic.nets))
	}
	return &ic.nets[ic.dense[di]-1]
}

func (n *net) hasSource(src Source) bool {
	for _, s := range n.srcs {
		if s == src {
			return true
		}
	}
	return false
}

func (n *net) need(step int) (Source, bool) {
	if step < len(n.needSet) && n.needSet[step] {
		return n.needSrc[step], true
	}
	return Source{}, false
}

func (n *net) setNeed(step int, src Source, hint int) {
	if step >= len(n.needSet) {
		grow := step + 1
		if hint > grow {
			grow = hint
		}
		ns := make([]Source, grow)
		nb := make([]bool, grow)
		copy(ns, n.needSrc)
		copy(nb, n.needSet)
		n.needSrc, n.needSet = ns, nb
	}
	n.needSrc[step] = src
	n.needSet[step] = true
}

// AddUse records one connection use. It returns an error when the sink
// would need two different sources in the same step — a binding bug.
func (ic *Interconnect) AddUse(u Use) error {
	n := ic.netFor(u.Sink, true)
	if n == nil {
		return fmt.Errorf("datapath: sink %v outside the hardware", u.Sink)
	}
	// Constant sources are cost-free but still recorded in the need map:
	// a functional implementation must route the constant in its step,
	// and merging two multiplexers that need different values in one
	// step — constant or not — would be wrong.
	if prev, ok := n.need(u.Step); ok && prev != u.Src {
		return fmt.Errorf("datapath: sink %v needs both %v and %v at step %d", u.Sink, prev, u.Src, u.Step)
	}
	n.setNeed(u.Step, u.Src, ic.steps)
	if !n.hasSource(u.Src) {
		n.srcs = append(n.srcs, u.Src)
	}
	return nil
}

// HasSource reports whether the sink already has the given source, so
// adding another use of it is free.
func (ic *Interconnect) HasSource(sink Sink, src Source) bool {
	n := ic.netFor(sink, false)
	return n != nil && n.hasSource(src)
}

// NeedOf returns the source the sink must receive at the given step,
// reporting false for steps where the sink is idle.
func (ic *Interconnect) NeedOf(s Sink, step int) (Source, bool) {
	n := ic.netFor(s, false)
	if n == nil {
		return Source{}, false
	}
	return n.need(step)
}

// FaninOf returns the number of cost-bearing (non-constant) sources of
// the sink.
func (ic *Interconnect) FaninOf(s Sink) int {
	n := ic.netFor(s, false)
	if n == nil {
		return 0
	}
	return n.costSources()
}

func (n *net) costSources() int {
	k := 0
	for _, s := range n.srcs {
		if s.Kind != SrcConst {
			k++
		}
	}
	return k
}

// MuxCost returns the equivalent 2-to-1 multiplexer count before
// merging: the sum over sinks of (fanin - 1).
func (ic *Interconnect) MuxCost() int {
	total := 0
	for i := range ic.nets {
		if k := ic.nets[i].costSources(); k > 1 {
			total += k - 1
		}
	}
	return total
}

// Connections returns the number of distinct cost-bearing point-to-point
// connections (source, sink pairs).
func (ic *Interconnect) Connections() int {
	total := 0
	for i := range ic.nets {
		total += ic.nets[i].costSources()
	}
	return total
}

// Sinks returns the sinks in deterministic (insertion) order.
func (ic *Interconnect) Sinks() []Sink { return ic.order }

// SourcesOf returns the sink's sources sorted for deterministic reports.
func (ic *Interconnect) SourcesOf(s Sink) []Source {
	n := ic.netFor(s, false)
	if n == nil {
		return nil
	}
	out := append([]Source(nil), n.srcs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// Mux is one multiplexer in the merged interconnect: a set of sources
// feeding one or more sinks. Needs records, per control step, the
// source the mux must select (steps with no entry are don't-care).
type Mux struct {
	Sources []Source
	Sinks   []Sink
	Needs   map[int]Source
}

// Cost returns the equivalent 2-to-1 multiplexer count of the mux.
func (m *Mux) Cost() int {
	k := 0
	for _, s := range m.Sources {
		if s.Kind != SrcConst {
			k++
		}
	}
	if k <= 1 {
		return 0
	}
	return k - 1
}

// MergeMuxes implements the paper's post-improvement merging procedure:
// an arbitrary (here: first in deterministic order) multiplexer is
// combined with as many compatible multiplexers as possible, then the
// next, until all have been attempted. Two multiplexers are compatible
// when no step requires different sources from them, so a single merged
// multiplexer can serve all their sinks. Only multi-source sinks take
// part; single-source sinks gain nothing from joining a mux.
func (ic *Interconnect) MergeMuxes() []Mux {
	var cands []*net
	for i := range ic.nets {
		if ic.nets[i].costSources() > 1 {
			cands = append(cands, &ic.nets[i])
		}
	}
	used := make([]bool, len(cands))
	var out []Mux
	for i := range cands {
		if used[i] {
			continue
		}
		used[i] = true
		merged := net{
			srcs:    append([]Source(nil), cands[i].srcs...),
			needSrc: append([]Source(nil), cands[i].needSrc...),
			needSet: append([]bool(nil), cands[i].needSet...),
		}
		m := Mux{Sinks: []Sink{cands[i].sink}}
		for j := i + 1; j < len(cands); j++ {
			if used[j] {
				continue
			}
			if !compatible(&merged, cands[j]) {
				continue
			}
			// Merging disjoint source sets would grow the equivalent
			// 2-to-1 count (|A∪B|-1 > (|A|-1)+(|B|-1) when nothing is
			// shared); require overlap so merging never costs.
			if sharedCostSources(&merged, cands[j]) == 0 {
				continue
			}
			used[j] = true
			for _, src := range cands[j].srcs {
				if !merged.hasSource(src) {
					merged.srcs = append(merged.srcs, src)
				}
			}
			for t := range cands[j].needSet {
				if cands[j].needSet[t] {
					merged.setNeed(t, cands[j].needSrc[t], len(merged.needSet))
				}
			}
			m.Sinks = append(m.Sinks, cands[j].sink)
		}
		m.Sources = append([]Source(nil), merged.srcs...)
		m.Needs = make(map[int]Source, len(merged.needSet))
		for t := range merged.needSet {
			if merged.needSet[t] {
				m.Needs[t] = merged.needSrc[t]
			}
		}
		sort.Slice(m.Sources, func(a, b int) bool {
			if m.Sources[a].Kind != m.Sources[b].Kind {
				return m.Sources[a].Kind < m.Sources[b].Kind
			}
			return m.Sources[a].Index < m.Sources[b].Index
		})
		out = append(out, m)
	}
	return out
}

func sharedCostSources(a, b *net) int {
	n := 0
	for _, s := range b.srcs {
		if s.Kind != SrcConst && a.hasSource(s) {
			n++
		}
	}
	return n
}

func compatible(a, b *net) bool {
	for t := range b.needSet {
		if !b.needSet[t] {
			continue
		}
		if prev, ok := a.need(t); ok && prev != b.needSrc[t] {
			return false
		}
	}
	return true
}

// MergedMuxCost returns the equivalent 2-to-1 multiplexer count after
// merging. It never exceeds MuxCost.
func (ic *Interconnect) MergedMuxCost() int {
	total := 0
	for _, m := range ic.MergeMuxes() {
		total += m.Cost()
	}
	return total
}
