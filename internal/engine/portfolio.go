package engine

import (
	"fmt"

	"salsa/internal/core"
)

// Job is one entry of a search portfolio: a fully-configured allocator
// run. A job's position in the portfolio slice is its identity for the
// deterministic reduction — ties on cost and merged-mux count go to
// the lowest index — so portfolio construction order is part of the
// reproducibility contract.
type Job struct {
	// Label identifies the job in telemetry and per-job statistics
	// (e.g. "salsa/seed=3").
	Label string
	// Opts is the allocator configuration the job runs with.
	Opts core.Options
}

// Restarts builds the classic multi-start portfolio: n copies of opts
// whose seeds are the derived sequence opts.Seed .. opts.Seed+n-1, in
// that order. With n < 1 a single job is returned. Run with pruning
// disabled returns the best of these restarts run one after another:
// the cheapest by cost, then merged muxes, then lowest seed.
func Restarts(opts core.Options, n int) []Job {
	if n < 1 {
		n = 1
	}
	jobs := make([]Job, n)
	for i := range jobs {
		o := opts
		o.Seed = opts.Seed + int64(i)
		jobs[i] = Job{Label: fmt.Sprintf("seed=%d", o.Seed), Opts: o}
	}
	return jobs
}
