// Package badgraphmut mutates Graph structural state outside the
// mutation boundary — every unjustified write is a mutguard finding.
package badgraphmut

import "fix/internal/cdfg"

// Tamper rewrites a finished graph the illegal way instead of building
// a new one through the owning package.
func Tamper(g *cdfg.Graph) {
	g.Nodes = nil                          // want "write of internal/cdfg.Graph.Nodes outside the mutation boundary"
	g.Nodes = append(g.Nodes, cdfg.Node{}) // want "write of internal/cdfg.Graph.Nodes outside the mutation boundary"
	g.Nodes[0].ID = 7                      // want "write of internal/cdfg.Graph.Nodes outside the mutation boundary"
	g.Cyclic = false                       // want "write of internal/cdfg.Graph.Cyclic outside the mutation boundary"
	g.Name = "ok"                          // unguarded field: no finding
	//lint:mutguard fixture: test scaffolding corrupts the graph on purpose
	g.Cyclic = true // suppressed by the directive above
}
