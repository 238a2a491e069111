package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
// With fewer, the value is set by one or two outliers.
const minBeyond = 10

// percentile returns the q-quantile of h in nanoseconds (0 < q < 1)
// and the sample count. It refuses a percentile with fewer than
// minBeyond samples above it, so p99 needs at least 1000 samples.
func percentile(h *hist, q float64) (float64, int, error) {
	if rank := nearestRank(h.n, q); h.n-rank < minBeyond {
		return 0, h.n, fmt.Errorf("p%g needs %d samples above it, %d samples leave %d", q*100, minBeyond, h.n, max(h.n-rank, 0))
	}
	return h.quantile(q), h.n, nil
}

// windowOps is the length of a tail window: the fewest samples a p99
// needs.
const windowOps = 100 * minBeyond

// tailWindows takes the p99 of each run of windowOps consecutive
// successful ops, in the order they completed; the last, partial run is
// left out. The benchmark's p99 is the p25 of these window p99s. Other
// tenants of a shared machine (a vCPU descheduled, a burst of a
// neighbour's disk writes) come and go within a run and only ever
// lengthen latencies, so they swell the p99 of some windows, and the
// quieter quarter of the windows shows the tail the code itself gives.
// A workload draws its ops from one stationary stream, so a change to
// the code moves every window alike. cold-unique's timed phase makes one
// window, so its p99 is the phase's.
type tailWindows struct {
	mu   sync.Mutex
	cur  []time.Duration // guarded by mu
	p99s []float64       // guarded by mu; ns, one per full window
}

func (w *tailWindows) add(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cur = append(w.cur, d)
	if len(w.cur) == windowOps {
		slices.Sort(w.cur)
		w.p99s = append(w.p99s, float64(w.cur[nearestRank(windowOps, 0.99)-1]))
		w.cur = w.cur[:0]
	}
}

// p99 returns the p25 of the window p99s in ns and the number of full
// windows. It fails without a full window.
func (w *tailWindows) p99() (float64, int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.p99s) == 0 {
		return 0, 0, fmt.Errorf("p99 needs a window of %d successful ops, %d ops leave none", windowOps, len(w.cur))
	}
	s := slices.Clone(w.p99s)
	slices.Sort(s)
	return s[nearestRank(len(s), 0.25)-1], len(s), nil
}

// nearestRank is the 1-based rank of the q-quantile among n samples.
// The small epsilon keeps q*n from rounding up past an exact integer
// (0.99*1000 is 990.0000000000001 in floating point).
func nearestRank(n int, q float64) int {
	return max(int(math.Ceil(q*float64(n)-1e-9)), 1)
}

// median is the nearest-rank median of xs, 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), 0.5)-1]
}

// hist is a latency histogram of fixed size. Its buckets are 1/histSub
// of a binary order of magnitude wide (0.27%), and a quantile
// interpolates within its bucket.
type hist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histSub     = 256
	histBuckets = 40 * histSub // up to 2^40 ns, about 18 minutes
)

func (h *hist) add(d time.Duration) {
	i := 0
	if d > 1 {
		i = min(int(math.Log2(float64(d))*histSub), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range &o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile in nanoseconds, placed
// within its bucket by the rank's position among the bucket's samples;
// 0 for no samples.
func (h *hist) quantile(q float64) float64 {
	rank, cum := nearestRank(h.n, q), 0
	for i, c := range &h.counts {
		if c > 0 && cum+int(c) >= rank {
			frac := (float64(rank-cum) - 0.5) / float64(c)
			return math.Exp2((float64(i) + frac) / histSub)
		}
		cum += int(c)
	}
	return 0
}

// median is the nearest-rank median; per-layer metrics use it, and a
// layer the workload's requests never reach reads 0.
func (h *hist) median() float64 { return h.quantile(0.5) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// selfTimes returns, for each span, its duration minus the part of its
// interval its direct children cover. Children may overlap one another
// (engine.job spans of a run with several workers), so the covered part
// is the length of the union of their intervals, clipped to the span.
func selfTimes(spans []span) []int64 {
	type ref struct {
		trace uint64
		id    int32
	}
	kids := make(map[ref][]int)
	for i, s := range spans {
		if s.parent != 0 {
			r := ref{s.trace, s.parent}
			kids[r] = append(kids[r], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		var ivs [][2]int64
		for _, c := range kids[ref{s.trace, s.id}] {
			if a, b := max(spans[c].start, s.start), min(spans[c].end, s.end); a < b {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach int64
		for _, iv := range ivs {
			if iv[0] > reach {
				reach = iv[0]
			}
			if iv[1] > reach {
				covered += iv[1] - reach
				reach = iv[1]
			}
		}
		out[i] = s.end - s.start - covered
	}
	return out
}
