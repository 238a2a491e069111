package main

import (
	"crypto/sha256"
	"sort"
	"sync"
	"time"
)

// The benchmark reports its timings scaled to a reference host. On a
// shared machine the speed a process gets drifts by a quarter over
// minutes, as other tenants come and go, and a timing alone cannot tell
// that drift from a change to the code. So a run also times a fixed
// kernel throughout its setups and timed phase, and divides its timings
// by how much slower than on the reference host the kernel ran.

// hostKernel is a fixed computation on the standard library alone:
// hashing, sorting and map updates over pseudo-random data. No change
// to the repository's code moves its time.
func hostKernel() uint64 {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	buf := make([]byte, 16<<10)
	for i := range buf {
		buf[i] = byte(next())
	}
	var out uint64
	for r := 0; r < 8; r++ {
		s := sha256.Sum256(buf)
		out += uint64(s[r])
	}
	xs := make([]int, 6000)
	for i := range xs {
		xs[i] = int(next() >> 1)
	}
	sort.Ints(xs)
	m := make(map[int]int)
	for i, v := range xs {
		m[v%2048] += i
	}
	return out + uint64(len(m))
}

// hostRef is the kernel's p25 time on the reference host: the 2-vCPU
// VM the bounds were measured on, at its median speed (README.md).
const hostRef = 800 * time.Microsecond

// hostEvery is how often the sampler times hostKernel: about 2% of one
// core, the same share on every commit.
const hostEvery = 50 * time.Millisecond

// hostSampler times hostKernel on its own goroutine from its start
// until stop.
type hostSampler struct {
	stopc, done chan struct{}
	once        sync.Once
	times       []float64 // ns; written by the sampling goroutine until done is closed
	sink        uint64    // keeps the kernel's result live
}

// sampleHost starts a sampler; it has timed the kernel once before stop
// returns.
func sampleHost() *hostSampler {
	s := &hostSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(hostEvery)
		defer tick.Stop()
		for {
			t0 := time.Now()
			s.sink += hostKernel()
			s.times = append(s.times, float64(time.Since(t0)))
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling, waits for the goroutine and returns the
// kernel times in ns. Calling it again returns the same times.
func (s *hostSampler) stop() []float64 {
	s.once.Do(func() { close(s.stopc) })
	<-s.done
	return s.times
}

// hostSlowness is how many times slower than on the reference host the
// kernel ran: the p25 of its times over hostRef. A low percentile,
// because the servers' goroutines and threads only ever lengthen a
// sample by preempting it.
func hostSlowness(times []float64) float64 {
	s := append([]float64(nil), times...)
	sort.Float64s(s)
	return s[nearestRank(len(s), 0.25)-1] / float64(hostRef)
}
