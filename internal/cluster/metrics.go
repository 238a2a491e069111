package cluster

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// routerMetrics holds the router-level counters and gauges. Everything
// is atomic (or mutex-guarded where a map is involved) so proxy paths
// update concurrently and /metrics snapshots are race-free.
type routerMetrics struct {
	requests  atomic.Int64 // requests that reached a router handler
	routed    atomic.Int64 // exchanges proxied to a backend (any outcome)
	failovers atomic.Int64 // exchanges moved to the next ring member
	rehomed   atomic.Int64 // requests whose healthy-ring owner differs from the full-ring owner
	cacheHits atomic.Int64 // router response-cache hits
	cacheMiss atomic.Int64 // router response-cache misses
	noBackend atomic.Int64 // 503s for an empty healthy ring
	// jobsLost counts genuine loss: every member reachable, none knows
	// the job — no replica of the owning journal survives. A merely
	// unreachable shard counts jobUnavailable instead (its journal may
	// recover the job when it rejoins).
	jobsLost       atomic.Int64
	jobUnavailable atomic.Int64 // job polls answered 503 pending a shard rejoin

	mu       sync.Mutex
	perShard map[string]int64 // guarded by mu; backend -> requests served by it
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{perShard: make(map[string]int64)}
}

func (m *routerMetrics) served(backend string) {
	m.mu.Lock()
	m.perShard[backend]++
	m.mu.Unlock()
}

// shards snapshots the per-backend served counters in sorted backend
// order.
func (m *routerMetrics) shards() (backends []string, counts []int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for b := range m.perShard {
		backends = append(backends, b)
	}
	sort.Strings(backends)
	for _, b := range backends {
		counts = append(counts, m.perShard[b])
	}
	return backends, counts
}

// writePrometheus renders the router counters in the Prometheus text
// exposition format. Backend health gauges and the scrape-through of
// backend engine counters are appended by the router, which owns the
// membership view.
func (m *routerMetrics) writePrometheus(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("salsa_router_requests_total", "Requests that reached the router.", m.requests.Load())
	counter("salsa_router_routed_total", "Exchanges proxied to a backend.", m.routed.Load())
	counter("salsa_router_failover_total", "Exchanges failed over to the next ring member.", m.failovers.Load())
	counter("salsa_router_rehomed_total", "Requests whose owner moved because a backend was unhealthy.", m.rehomed.Load())
	counter("salsa_router_cache_hits_total", "Router response-cache hits.", m.cacheHits.Load())
	counter("salsa_router_cache_misses_total", "Router response-cache misses.", m.cacheMiss.Load())
	counter("salsa_router_no_backend_total", "Requests rejected because no backend was healthy.", m.noBackend.Load())
	counter("salsa_router_jobs_lost_total", "Job polls for which no reachable shard knows the job (genuine loss; resubmit).", m.jobsLost.Load())
	counter("salsa_router_job_unavailable_total", "Job polls answered 503 while the pinned shard is unreachable (journal may recover it).", m.jobUnavailable.Load())
	fmt.Fprintf(w, "# HELP salsa_router_served_total Requests served per backend.\n# TYPE salsa_router_served_total counter\n")
	backends, counts := m.shards()
	for i, b := range backends {
		fmt.Fprintf(w, "salsa_router_served_total{backend=%q} %d\n", b, counts[i])
	}
}

// snapshot returns the router counters as a flat map for tests.
func (m *routerMetrics) snapshot() map[string]int64 {
	out := map[string]int64{
		"requests_total":        m.requests.Load(),
		"routed_total":          m.routed.Load(),
		"failover_total":        m.failovers.Load(),
		"rehomed_total":         m.rehomed.Load(),
		"cache_hits_total":      m.cacheHits.Load(),
		"cache_misses_total":    m.cacheMiss.Load(),
		"no_backend_total":      m.noBackend.Load(),
		"jobs_lost_total":       m.jobsLost.Load(),
		"job_unavailable_total": m.jobUnavailable.Load(),
	}
	backends, counts := m.shards()
	for i, b := range backends {
		out["served_total_"+b] = counts[i]
	}
	return out
}
