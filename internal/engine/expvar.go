package engine

import "salsa/internal/metrics"

// counters are the engine's process-wide telemetry, declared once for
// the metrics registry and also published through expvar, so a serving
// layer (internal/service, cmd/salsad) can export them without holding
// a reference to any particular engine run.
//
// They are cumulative over the process lifetime and count *canonical*
// search effort (the same numbers Stats reports): trial and move
// counters are folded in on the reduction goroutine as each job
// resolves, so the totals are independent of worker count and
// completion order, exactly like Stats.
var counters struct {
	Runs             metrics.Counter `metric:"salsa_engine_runs_total" help:"Engine counter (process-wide, see internal/engine)."`
	Jobs             metrics.Counter `metric:"salsa_engine_jobs_total" help:"Engine counter (process-wide, see internal/engine)."`
	WorkersStarted   metrics.Counter `metric:"salsa_engine_workers_started_total" help:"Engine counter (process-wide, see internal/engine)."`
	Trials           metrics.Counter `metric:"salsa_engine_trials_total" help:"Engine counter (process-wide, see internal/engine)."`
	MovesTried       metrics.Counter `metric:"salsa_engine_moves_tried_total" help:"Engine counter (process-wide, see internal/engine)."`
	MovesAccepted    metrics.Counter `metric:"salsa_engine_moves_accepted_total" help:"Engine counter (process-wide, see internal/engine)."`
	IncumbentUpdates metrics.Counter `metric:"salsa_engine_incumbent_updates_total" help:"Engine counter (process-wide, see internal/engine)."`
	JobsPruned       metrics.Counter `metric:"salsa_engine_jobs_pruned_total" help:"Engine counter (process-wide, see internal/engine)."`
	JobsCancelled    metrics.Counter `metric:"salsa_engine_jobs_cancelled_total" help:"Engine counter (process-wide, see internal/engine)."`
	JobsFailed       metrics.Counter `metric:"salsa_engine_jobs_failed_total" help:"Engine counter (process-wide, see internal/engine)."`
}

var registry = metrics.New(&counters, "")

func init() { registry.PublishExpvar() }

// Metrics returns the registry of the engine's process-wide counters,
// whose snapshot keys are the counters' full names.
func Metrics() *metrics.Registry { return registry }
