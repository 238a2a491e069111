package cluster

import "salsa/internal/metrics"

// routerMetrics declares every router metric once, in rendering order
// (see package metrics). Proxy paths update the fields directly;
// /metrics and MetricsSnapshot render from the declarations.
type routerMetrics struct {
	Requests  metrics.Counter `metric:"salsa_router_requests_total" help:"Requests that reached the router."`
	Routed    metrics.Counter `metric:"salsa_router_routed_total" help:"Exchanges proxied to a backend."`
	Failovers metrics.Counter `metric:"salsa_router_failover_total" help:"Exchanges failed over to the next healthy backend in the key's placement order."`
	// Rehomed counts requests whose first healthy backend differs from
	// the owner over the full membership.
	Rehomed        metrics.Counter `metric:"salsa_router_rehomed_total" help:"Requests whose owner moved because a backend was unhealthy."`
	CacheHits      metrics.Counter `metric:"salsa_router_cache_hits_total" help:"Router response-cache hits."`
	CacheMisses    metrics.Counter `metric:"salsa_router_cache_misses_total" help:"Router response-cache misses."`
	BodyDigestHits metrics.Counter `metric:"salsa_router_body_digest_hits_total" help:"Requests whose body the body table knew, addressed without decoding it."`
	NoBackend      metrics.Counter `metric:"salsa_router_no_backend_total" help:"Requests rejected because no backend was healthy."`
	// JobsLost counts loss: the pinned shard is up and does not know
	// the job, so it restarted without its journal. A merely
	// unreachable shard counts JobUnavailable instead (its journal may
	// recover the job when it rejoins).
	JobsLost       metrics.Counter            `metric:"salsa_router_jobs_lost_total" help:"Job polls the live pinned shard answered 404 (the job is lost; resubmit)."`
	JobUnavailable metrics.Counter            `metric:"salsa_router_job_unavailable_total" help:"Job polls answered 503 while the pinned shard is unreachable (journal may recover it)."`
	Served         metrics.CounterVec[string] `metric:"salsa_router_served_total" label:"backend" help:"Requests served per backend."`
	BackendHealthy metrics.GaugeVecFunc       `metric:"salsa_router_backend_healthy" label:"backend" key:"healthy_backends" help:"Backend health by probe (1 healthy, 0 not)."`
	CacheEntries   metrics.GaugeFunc          `metric:"salsa_router_cache_entries" help:"Router response-cache resident entries."`
}
