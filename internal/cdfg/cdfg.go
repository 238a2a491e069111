// Package cdfg defines the control/data flow graph (CDFG) representation
// consumed by the scheduler and the allocator.
//
// A CDFG is a directed graph of operator nodes connected by values. Each
// operator produces at most one value and reads zero or more operand
// values. Primary inputs, constants and loop-carried state values are
// modeled as special node kinds that produce a value without consuming
// FU time. The graph may be a straight-line block (e.g. the DCT) or the
// body of a perfect loop (e.g. the elliptic wave filter), in which case
// state values produced in one iteration are consumed in the next.
package cdfg

import (
	"fmt"
	"sort"
	"strings"
)

// Op enumerates operator kinds. Arithmetic kinds occupy a functional
// unit when scheduled; source kinds (Input, Const, State) do not.
type Op int

const (
	// Invalid is the zero Op; it never appears in a valid graph.
	Invalid Op = iota
	// Add is a two-input addition.
	Add
	// Sub is a two-input subtraction (left minus right).
	Sub
	// Mul is a two-input multiplication.
	Mul
	// Input marks a primary input value (no operands).
	Input
	// Const marks a compile-time constant value (no operands).
	Const
	// State marks a loop-carried value: its content at the start of an
	// iteration is the value written to it (via SetNext) at the end of
	// the previous iteration.
	State
	// Output marks a primary output sink: one operand, no produced value.
	Output
)

// String returns the lower-case mnemonic for the operator kind.
func (o Op) String() string {
	switch o {
	case Add:
		return "add"
	case Sub:
		return "sub"
	case Mul:
		return "mul"
	case Input:
		return "input"
	case Const:
		return "const"
	case State:
		return "state"
	case Output:
		return "output"
	default:
		return "invalid"
	}
}

// IsArith reports whether the kind occupies a functional unit.
func (o Op) IsArith() bool { return o == Add || o == Sub || o == Mul }

// IsSource reports whether the kind produces a value without computation.
func (o Op) IsSource() bool { return o == Input || o == Const || o == State }

// Commutative reports whether the two operands may be exchanged without
// changing the result. Subtraction is the only non-commutative
// arithmetic kind in the model.
func (o Op) Commutative() bool { return o == Add || o == Mul }

// NodeID identifies a node within its graph. IDs are dense, starting at 0.
type NodeID int

// NoNode is the sentinel for "no node".
const NoNode NodeID = -1

// Node is one CDFG node. Arithmetic nodes have exactly two operands in
// this model (all benchmark operators are binary); source and output
// kinds use the conventions documented on each field.
type Node struct {
	ID   NodeID
	Op   Op
	Name string

	// Args lists the operand-producing nodes, in port order. Length 2
	// for arithmetic kinds, 1 for Output, 0 for sources.
	Args []NodeID

	// ConstVal is the value of a Const node (ignored otherwise).
	ConstVal int64

	// Next, for State nodes, names the node whose value becomes this
	// state's content in the following loop iteration. NoNode for
	// non-state nodes and for graphs without a loop.
	Next NodeID
}

// Graph is a CDFG under construction or in use. Nodes are stored in
// creation order; NodeID indexes the Nodes slice directly.
type Graph struct {
	Name  string
	Nodes []Node

	// Cyclic marks the graph as a loop body. All State nodes must have
	// Next set when Cyclic is true.
	Cyclic bool

	uses map[NodeID][]NodeID // producer -> consumers (including Output sinks)
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name, uses: make(map[NodeID][]NodeID)}
}

// add appends a node and maintains the use map.
func (g *Graph) add(n Node) NodeID {
	n.ID = NodeID(len(g.Nodes))
	if n.Name == "" {
		n.Name = fmt.Sprintf("%s%d", n.Op, n.ID)
	}
	g.Nodes = append(g.Nodes, n)
	if g.uses == nil {
		g.uses = make(map[NodeID][]NodeID)
	}
	for _, a := range n.Args {
		g.uses[a] = append(g.uses[a], n.ID)
	}
	return n.ID
}

// Input adds a primary input node.
func (g *Graph) Input(name string) NodeID {
	return g.add(Node{Op: Input, Name: name, Next: NoNode})
}

// Const adds a constant node with the given value.
func (g *Graph) Const(name string, v int64) NodeID {
	return g.add(Node{Op: Const, Name: name, ConstVal: v, Next: NoNode})
}

// State adds a loop-carried state node. Call SetNext before Validate on
// cyclic graphs.
func (g *Graph) State(name string) NodeID {
	return g.add(Node{Op: State, Name: name, Next: NoNode})
}

// SetNext records that state node s receives the value of node v at the
// end of each iteration.
func (g *Graph) SetNext(s, v NodeID) {
	g.Nodes[s].Next = v
	g.Cyclic = true
}

// Add adds an addition node reading a and b.
func (g *Graph) Add(name string, a, b NodeID) NodeID {
	return g.add(Node{Op: Add, Name: name, Args: []NodeID{a, b}, Next: NoNode})
}

// Sub adds a subtraction node computing a-b.
func (g *Graph) Sub(name string, a, b NodeID) NodeID {
	return g.add(Node{Op: Sub, Name: name, Args: []NodeID{a, b}, Next: NoNode})
}

// Mul adds a multiplication node reading a and b.
func (g *Graph) Mul(name string, a, b NodeID) NodeID {
	return g.add(Node{Op: Mul, Name: name, Args: []NodeID{a, b}, Next: NoNode})
}

// MulC adds a multiplication of a by a fresh named constant. The
// constant node is created as a side effect and shares the name with a
// "c_" prefix. Constant operands are cost-free in the interconnect
// model, matching the paper's treatment of coefficient multiplications.
func (g *Graph) MulC(name string, a NodeID, c int64) NodeID {
	k := g.Const("c_"+name, c)
	return g.add(Node{Op: Mul, Name: name, Args: []NodeID{a, k}, Next: NoNode})
}

// Output adds a primary output sink reading v.
func (g *Graph) Output(name string, v NodeID) NodeID {
	return g.add(Node{Op: Output, Name: name, Args: []NodeID{v}, Next: NoNode})
}

// Uses returns the consumers of the value produced by id, in insertion
// order. Output sinks are included; State.Next references are not.
func (g *Graph) Uses(id NodeID) []NodeID { return g.uses[id] }

// NumOps returns the number of arithmetic operator nodes.
func (g *Graph) NumOps() int {
	n := 0
	for i := range g.Nodes {
		if g.Nodes[i].Op.IsArith() {
			n++
		}
	}
	return n
}

// OpCount returns the number of nodes of kind op.
func (g *Graph) OpCount(op Op) int {
	n := 0
	for i := range g.Nodes {
		if g.Nodes[i].Op == op {
			n++
		}
	}
	return n
}

// ValidationError aggregates every structural violation Validate found
// in one pass, sorted lexicographically. Reporting all violations at
// once (rather than first-error-wins) keeps the message stable under
// node reordering, which the shrinker and the FuzzValidate corpus rely
// on when comparing findings across runs.
type ValidationError struct {
	// Violations holds one message per violation, sorted.
	Violations []string
}

func (e *ValidationError) Error() string {
	if len(e.Violations) == 1 {
		return e.Violations[0]
	}
	return fmt.Sprintf("%d violations: %s", len(e.Violations), strings.Join(e.Violations, "; "))
}

// Validate checks structural invariants and returns nil or a
// *ValidationError listing every violation, sorted.
func (g *Graph) Validate() error {
	var viol []string
	bad := func(format string, args ...any) {
		viol = append(viol, fmt.Sprintf(format, args...))
	}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.ID != NodeID(i) {
			bad("node %d: stored ID %d mismatch", i, n.ID)
		}
		wantArgs := -1
		switch {
		case n.Op.IsArith():
			wantArgs = 2
		case n.Op == Output:
			wantArgs = 1
		case n.Op.IsSource():
			wantArgs = 0
		default:
			bad("node %s: invalid op", n.Name)
		}
		if wantArgs >= 0 && len(n.Args) != wantArgs {
			bad("node %s (%s): has %d args, want %d", n.Name, n.Op, len(n.Args), wantArgs)
		}
		for _, a := range n.Args {
			if a < 0 || int(a) >= len(g.Nodes) {
				bad("node %s: arg %d out of range", n.Name, a)
				continue // the remaining arg checks would index out of range
			}
			if g.Nodes[a].Op == Output {
				bad("node %s: reads Output node %s", n.Name, g.Nodes[a].Name)
			}
			if a >= n.ID {
				bad("node %s: forward reference to %s (graph must be built in topological order)", n.Name, g.Nodes[a].Name)
			}
		}
		if n.Op == State {
			if g.Cyclic && n.Next == NoNode {
				bad("state node %s: Next unset in cyclic graph", n.Name)
			}
			if n.Next != NoNode {
				if n.Next < 0 || int(n.Next) >= len(g.Nodes) {
					bad("state node %s: Next out of range", n.Name)
				} else if nx := g.Nodes[n.Next].Op; nx == Output {
					bad("state node %s: Next is an Output node", n.Name)
				}
			}
		} else if n.Next != NoNode {
			bad("node %s: Next set on non-state node", n.Name)
		}
	}
	if len(viol) == 0 {
		return nil
	}
	sort.Strings(viol)
	return &ValidationError{Violations: viol}
}

// Topo returns the node IDs in a topological order of the acyclic data
// dependencies (State→Next back edges excluded). Because the builder
// enforces construction in dependency order, this is simply 0..n-1; it
// exists so client code states its ordering requirement explicitly.
func (g *Graph) Topo() []NodeID {
	ids := make([]NodeID, len(g.Nodes))
	for i := range ids {
		ids[i] = NodeID(i)
	}
	return ids
}

// CriticalPath returns the length, in control steps, of the longest
// dependency chain given per-op delays (see Delay): the minimum schedule
// length. Source nodes contribute no delay.
func (g *Graph) CriticalPath(delays Delays) int {
	finish := make([]int, len(g.Nodes)) // earliest completion step (exclusive)
	max := 0
	for i := range g.Nodes {
		n := &g.Nodes[i]
		start := 0
		for _, a := range n.Args {
			if finish[a] > start {
				start = finish[a]
			}
		}
		if n.Op.IsArith() {
			finish[i] = start + delays.Of(n.Op)
		} else {
			finish[i] = start
		}
		if finish[i] > max {
			max = finish[i]
		}
	}
	return max
}

// Delays maps arithmetic op kinds to their delay in control steps and
// initiation interval (II). II < Delay models a pipelined unit that can
// start a new operation every II steps.
type Delays struct {
	AddDelay int
	MulDelay int
	MulII    int // initiation interval of the multiplier; 0 means == MulDelay
}

// DefaultDelays returns the paper's hardware assumptions: adders take
// one control step, multipliers two. Pipelined multipliers keep the
// two-step latency but accept a new operation every step (the HAL
// assumption the paper adopts).
func DefaultDelays(pipelinedMul bool) Delays {
	d := Delays{AddDelay: 1, MulDelay: 2, MulII: 2}
	if pipelinedMul {
		d.MulII = 1
	}
	return d
}

// Of returns the delay of op in control steps.
func (d Delays) Of(op Op) int {
	switch op {
	case Add, Sub:
		return d.AddDelay
	case Mul:
		return d.MulDelay
	default:
		return 0
	}
}

// IIOf returns the initiation interval of op.
func (d Delays) IIOf(op Op) int {
	switch op {
	case Add, Sub:
		return d.AddDelay
	case Mul:
		if d.MulII > 0 {
			return d.MulII
		}
		return d.MulDelay
	default:
		return 0
	}
}

// Stats summarizes a graph for reports.
func (g *Graph) Stats() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d nodes (%d add, %d sub, %d mul; %d input, %d const, %d state, %d output)",
		g.Name, len(g.Nodes), g.OpCount(Add), g.OpCount(Sub), g.OpCount(Mul),
		g.OpCount(Input), g.OpCount(Const), g.OpCount(State), g.OpCount(Output))
	return b.String()
}

// SortedUses returns the consumers of id sorted by ID, for deterministic
// iteration in reports and tests.
func (g *Graph) SortedUses(id NodeID) []NodeID {
	u := append([]NodeID(nil), g.uses[id]...)
	sort.Slice(u, func(i, j int) bool { return u[i] < u[j] })
	return u
}
