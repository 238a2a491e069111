package binding

import "math/bits"

// bitset is a fixed-size set of small non-negative integers, one bit
// each. The transaction keeps its segment indexes in bitsets, so a walk
// visits segment indices in ascending order: Eval's (value, position)
// order, as segments number value-major.
type bitset []uint64

// newBitsets returns rows sets over n members each, carved from one
// backing array.
func newBitsets(rows, n int) []bitset {
	w := (n + 63) >> 6
	flat := make(bitset, rows*w)
	g := make([]bitset, rows)
	for i := range g {
		g[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return g
}

func (s bitset) has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// put adds i to the set when on holds and removes it otherwise.
func (s bitset) put(i int, on bool) {
	if on {
		s[i>>6] |= 1 << (uint(i) & 63)
	} else {
		s[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// next returns the smallest member not below i, or -1 when there is
// none.
func (s bitset) next(i int) int {
	w := i >> 6
	if w >= len(s) {
		return -1
	}
	word := s[w] &^ (1<<(uint(i)&63) - 1)
	for word == 0 {
		if w++; w == len(s) {
			return -1
		}
		word = s[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}
