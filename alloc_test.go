package salsa_test

import (
	"context"
	"testing"

	"salsa/internal/cdfg"
	"salsa/internal/engine"
	"salsa/internal/workloads"
)

// TestAllocationBudget pins the search's allocation count: one
// single-worker run of benchAllocateParallel's 8-restart portfolio
// (600 moves a trial, at most 8 trials) may allocate at most the
// budget. A search that allocates per move or per trial again —
// 4800 moves and up to 64 trial restarts a job here — overshoots it
// many times over, so the regression fails `go test ./...` rather
// than showing only as a slower benchmark.
func TestAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      func() *cdfg.Graph
		steps  int
		budget float64
	}{
		{"ewf", workloads.EWF, 19, 12000},
		{"dct", workloads.DCT, 12, 15000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, hw, jobs := allocateParallelSetup(t, tc.g, tc.steps)
			var runErr error
			allocs := testing.AllocsPerRun(2, func() {
				if _, _, err := engine.Run(context.Background(), a, hw, jobs, engine.Config{Workers: 1}); err != nil {
					runErr = err
				}
			})
			if runErr != nil {
				t.Fatal(runErr)
			}
			t.Logf("%.0f allocations per run (budget %.0f)", allocs, tc.budget)
			if allocs > tc.budget {
				t.Errorf("%.0f allocations per run, over the budget of %.0f", allocs, tc.budget)
			}
		})
	}
}
