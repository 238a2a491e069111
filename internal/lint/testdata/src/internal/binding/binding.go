// Package binding mirrors the real model's bound-state shape so the
// fixture packages can exercise the mutguard boundary.
package binding

// Binding is the fixture stand-in for the guarded struct.
type Binding struct {
	OpFU   []int
	OpSwap []bool
	SegReg [][]int
	Copies map[int][]int
	Pass   map[int]int
	Cost   int
}

// Reset mutates bound state legally: the owning package is the
// innermost mutation boundary.
func (b *Binding) Reset() {
	for i := range b.OpFU {
		b.OpFU[i] = -1
	}
	b.Pass = make(map[int]int)
}

// Check stands in for the real legality validator.
func (b *Binding) Check() error { return nil }
