// Package badcostmut writes CostTable guarded state outside the
// mutation boundary — every unjustified write is a mutguard finding.
package badcostmut

import "fix/internal/datapath"

// Tamper mutates the guarded fields the illegal way: entries changed
// behind the transaction layer's back can never be rolled back.
func Tamper(ct *datapath.CostTable) {
	ct.PerSink[0] = 3 // want "write of internal/datapath.CostTable.PerSink outside the mutation boundary"
	ct.TotalMux++     // want "write of internal/datapath.CostTable.TotalMux outside the mutation boundary"
	ct.PerSink = nil  // want "write of internal/datapath.CostTable.PerSink outside the mutation boundary"
	ct.NumFUs = 2     // unguarded field: no finding
	//lint:mutguard fixture: seeding a fresh table before any journal exists
	ct.TotalMux = 0 // suppressed by the directive above
}
