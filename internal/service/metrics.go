package service

import (
	"expvar"
	"sync"
	"sync/atomic"

	"salsa/internal/metrics"
)

// serverMetrics declares every service metric once, in rendering order
// (see package metrics). Handlers update the fields directly; /metrics,
// MetricsSnapshot and the salsa_service expvar render from the
// declarations.
type serverMetrics struct {
	HTTPRequests    metrics.Counter         `metric:"salsa_http_requests_total" help:"HTTP requests received."`
	Responses       metrics.CounterVec[int] `metric:"salsa_http_responses_total" label:"code" key:"responses_total" help:"HTTP responses by status code."`
	AllocRequests   metrics.Counter         `metric:"salsa_allocate_requests_total" help:"Allocation requests (sync and async)."`
	CacheHits       metrics.Counter         `metric:"salsa_cache_hits_total" help:"Result-cache hits."`
	CacheMisses     metrics.Counter         `metric:"salsa_cache_misses_total" help:"Result-cache misses."`
	BodyDigestHits  metrics.Counter         `metric:"salsa_body_digest_hits_total" help:"Result-cache hits whose body the body table knew, served without decoding it."`
	CacheEntries    metrics.GaugeFunc       `metric:"salsa_cache_entries" help:"Result-cache resident entries."`
	FlightLeads     metrics.Counter         `metric:"salsa_singleflight_leader_total" help:"Requests that led an engine run."`
	FlightShared    metrics.Counter         `metric:"salsa_singleflight_shared_total" help:"Requests deduplicated onto an in-flight identical run."`
	FlightAbandoned metrics.Counter         `metric:"salsa_singleflight_abandoned_total" help:"Parked singleflight waiters whose request context expired before the leader finished."`
	EngineRuns      metrics.Counter         `metric:"salsa_engine_invocations_total" help:"Engine runs this server performed."`
	Partials        metrics.Counter         `metric:"salsa_partial_results_total" help:"Deadline-truncated results served (HTTP 200, partial)."`
	TimeoutsEmpty   metrics.Counter         `metric:"salsa_deadline_empty_total" help:"Deadlines that fired before any allocation existed (HTTP 408)."`
	QueueRejected   metrics.Counter         `metric:"salsa_queue_rejected_total" help:"Requests rejected by admission control (HTTP 429)."`
	QueueDepth      metrics.Gauge           `metric:"salsa_queue_depth" help:"Requests admitted and waiting for an engine slot."`
	ActiveRuns      metrics.Gauge           `metric:"salsa_active_runs" help:"Engine runs currently executing."`
	JobsSubmitted   metrics.Counter         `metric:"salsa_jobs_submitted_total" help:"Async jobs accepted."`
	JobsFinished    metrics.Counter         `metric:"salsa_jobs_finished_total" help:"Async jobs completed (any terminal state)."`
	JobsRecovered   metrics.Counter         `metric:"salsa_jobs_recovered_total" help:"Async jobs replayed from the write-ahead journal at boot."`
	JournalErrors   metrics.Counter         `metric:"salsa_journal_errors_total" help:"Journal appends that failed or replayed entries that were dropped."`
	Latency         metrics.Histogram       `metric:"salsa_request_duration_ms" help:"HTTP request latency."`
}

// expvar publication: one process-wide "salsa_service" Func snapshots
// the most recently constructed server (expvar forbids re-publishing a
// name, and tests construct many servers per process).
var (
	expvarOnce   sync.Once
	expvarServer atomic.Pointer[Server]
)

func publishExpvar(s *Server) {
	expvarServer.Store(s)
	expvarOnce.Do(func() {
		expvar.Publish("salsa_service", expvar.Func(func() any {
			srv := expvarServer.Load()
			if srv == nil {
				return nil
			}
			return srv.MetricsSnapshot()
		}))
	})
}
