// Package datapath mirrors the real interconnect package's incremental
// cost table so the fixture packages can exercise the CostTable boundary.
package datapath

// CostTable is the fixture stand-in for the guarded per-sink table.
type CostTable struct {
	PerSink  []int32
	TotalMux int
	NumFUs   int
}

// Set mutates guarded state legally: the owning package is the
// innermost mutation boundary.
func (ct *CostTable) Set(idx, c int) {
	ct.TotalMux += c - int(ct.PerSink[idx])
	ct.PerSink[idx] = int32(c)
}
