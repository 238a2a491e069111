// Package randgraph is the fixture stand-in for the random-graph
// generator: a whole package designated as part of the cdfg.Graph
// mutation boundary, so its direct structural writes are legal.
package randgraph

import "fix/internal/cdfg"

// Generate assembles a graph with direct structural writes — legal
// here because the generator package is inside the boundary.
func Generate() *cdfg.Graph {
	g := &cdfg.Graph{Name: "gen"}
	g.Nodes = append(g.Nodes, cdfg.Node{ID: 0, Name: "in"})
	g.Cyclic = true
	g.Nodes[0].Name = "renamed"
	return g
}
