package randgraph

import (
	"salsa/internal/cdfg"
)

// ShrinkCandidates enumerates every one-step reduction of g, in a
// deterministic order: output drops first, then dead-node drops, then
// operator bypasses (each operator replaced by one of its operands in
// all of its consumers). Each candidate is a freshly built graph that
// passes Validate; candidates that would break a structural invariant
// are silently omitted. The crosscheck shrinker greedily walks these
// candidates, keeping any that preserve a failure, so findings arrive
// as near-minimal graphs.
//
// All graph surgery in this repository lives here, behind the cdfg
// builder API and a Validate gate (enforced by the mutguard analyzer in
// internal/lint): candidates are rebuilt node by node, never produced
// by mutating an existing graph in place.
func ShrinkCandidates(g *cdfg.Graph) []*cdfg.Graph {
	var out []*cdfg.Graph
	add := func(ng *cdfg.Graph, ok bool) {
		if ok && ng.Validate() == nil {
			out = append(out, ng)
		}
	}

	// stateNext[p] reports that node p feeds a state's back edge.
	stateNext := make(map[cdfg.NodeID]bool)
	for i := range g.Nodes {
		if n := &g.Nodes[i]; n.Op == cdfg.State && n.Next != cdfg.NoNode {
			stateNext[n.Next] = true
		}
	}

	// 1. Drop one Output sink.
	for i := range g.Nodes {
		if g.Nodes[i].Op == cdfg.Output {
			add(rebuild(g, map[cdfg.NodeID]bool{cdfg.NodeID(i): true}, nil))
		}
	}

	// 2. Drop one dead node: no consumers and not on a state back edge.
	for i := range g.Nodes {
		n := &g.Nodes[i]
		id := cdfg.NodeID(i)
		if n.Op == cdfg.Output || len(g.Uses(id)) > 0 || stateNext[id] {
			continue
		}
		// For a dead State node, its own back edge disappears with it;
		// nothing else references Next, so a plain drop suffices.
		add(rebuild(g, map[cdfg.NodeID]bool{id: true}, nil))
	}

	// 3. Bypass one operator: consumers read one of its operands
	// instead. This shortens dependence chains and lifetimes while
	// keeping the consumers alive.
	for i := range g.Nodes {
		n := &g.Nodes[i]
		id := cdfg.NodeID(i)
		if !n.Op.IsArith() || (len(g.Uses(id)) == 0 && !stateNext[id]) {
			continue
		}
		for _, arg := range bypassTargets(g, id, stateNext) {
			add(rebuild(g, map[cdfg.NodeID]bool{id: true}, map[cdfg.NodeID]cdfg.NodeID{id: arg}))
		}
	}
	return out
}

// bypassTargets lists the operands that may stand in for operator id.
// When id feeds a state back edge the replacement must itself be a
// legal state producer: an operator or an input that does not already
// feed another state (the lifetime analysis rejects constant- and
// state-fed states and shared producers).
func bypassTargets(g *cdfg.Graph, id cdfg.NodeID, stateNext map[cdfg.NodeID]bool) []cdfg.NodeID {
	var out []cdfg.NodeID
	seen := make(map[cdfg.NodeID]bool)
	for _, arg := range g.Nodes[id].Args {
		if seen[arg] {
			continue
		}
		seen[arg] = true
		if stateNext[id] {
			an := &g.Nodes[arg]
			if an.Op == cdfg.Const || an.Op == cdfg.State || stateNext[arg] {
				continue
			}
		}
		out = append(out, arg)
	}
	return out
}

// rebuild constructs a new graph from g with the skipped nodes removed
// and every reference to a redirected node resolved to its replacement
// (chains are followed). It reports failure when a surviving node
// references a removed, unredirected node, or when a state back edge
// would become illegal (constant/state producer, or a producer shared
// with another state). Only the cdfg builder API is used, so the result
// satisfies every invariant the builder enforces.
func rebuild(g *cdfg.Graph, skip map[cdfg.NodeID]bool, redirect map[cdfg.NodeID]cdfg.NodeID) (*cdfg.Graph, bool) {
	resolve := func(id cdfg.NodeID) (cdfg.NodeID, bool) {
		for i := 0; i < len(g.Nodes); i++ {
			if r, ok := redirect[id]; ok {
				id = r
				continue
			}
			if skip[id] {
				return cdfg.NoNode, false
			}
			return id, true
		}
		return cdfg.NoNode, false // redirect cycle: malformed transform
	}

	ng := cdfg.New(g.Name)
	newID := make(map[cdfg.NodeID]cdfg.NodeID, len(g.Nodes))
	type backEdge struct{ state, next cdfg.NodeID } // new state ID, old next ID
	var edges []backEdge
	for i := range g.Nodes {
		n := &g.Nodes[i]
		id := cdfg.NodeID(i)
		if skip[id] {
			continue
		}
		mapArg := func(a cdfg.NodeID) (cdfg.NodeID, bool) {
			old, ok := resolve(a)
			if !ok {
				return cdfg.NoNode, false
			}
			na, ok := newID[old]
			return na, ok
		}
		switch n.Op {
		case cdfg.Input:
			newID[id] = ng.Input(n.Name)
		case cdfg.Const:
			newID[id] = ng.Const(n.Name, n.ConstVal)
		case cdfg.State:
			s := ng.State(n.Name)
			newID[id] = s
			if n.Next != cdfg.NoNode {
				edges = append(edges, backEdge{s, n.Next})
			}
		case cdfg.Add, cdfg.Sub, cdfg.Mul:
			a, okA := mapArg(n.Args[0])
			b, okB := mapArg(n.Args[1])
			if !okA || !okB {
				return nil, false
			}
			switch n.Op {
			case cdfg.Add:
				newID[id] = ng.Add(n.Name, a, b)
			case cdfg.Sub:
				newID[id] = ng.Sub(n.Name, a, b)
			default:
				newID[id] = ng.Mul(n.Name, a, b)
			}
		case cdfg.Output:
			v, ok := mapArg(n.Args[0])
			if !ok || !ng.Nodes[v].Op.IsArith() {
				// Outputs of non-operator values are outside the
				// generator's contract; drop the transform instead of
				// producing a case shape the pipeline never sees.
				return nil, false
			}
			ng.Output(n.Name, v)
		}
	}
	taken := make(map[cdfg.NodeID]bool)
	for _, e := range edges {
		old, ok := resolve(e.next)
		if !ok {
			return nil, false
		}
		next, ok := newID[old]
		if !ok {
			return nil, false
		}
		if op := ng.Nodes[next].Op; op == cdfg.Const || op == cdfg.State {
			return nil, false
		}
		if taken[next] {
			return nil, false
		}
		taken[next] = true
		ng.SetNext(e.state, next)
	}
	return ng, true
}
