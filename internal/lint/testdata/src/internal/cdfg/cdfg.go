// Package cdfg mirrors the real graph model's structural shape so the
// fixture packages can exercise the Graph boundary.
package cdfg

// Node is the fixture stand-in for one graph node.
type Node struct {
	ID   int
	Name string
}

// Graph is the fixture stand-in for the guarded struct.
type Graph struct {
	Name   string
	Nodes  []Node
	Cyclic bool
}

// Add mutates structural state legally: the owning package is the
// innermost mutation boundary.
func (g *Graph) Add(name string) int {
	g.Nodes = append(g.Nodes, Node{ID: len(g.Nodes), Name: name})
	return len(g.Nodes) - 1
}

// MarkCyclic flips the loop flag from inside the boundary.
func (g *Graph) MarkCyclic() { g.Cyclic = true }
