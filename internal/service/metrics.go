package service

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"salsa/internal/engine"
)

// metrics holds the service's counters and gauges. Everything is
// atomic (or mutex-guarded where a map is involved), so handlers
// update concurrently without coordination and /metrics snapshots are
// race-free under -race.
type metrics struct {
	// HTTP surface.
	httpRequests atomic.Int64 // every request that reached a handler
	respMu       sync.Mutex
	respByCode   map[int]int64 // guarded by respMu; status code -> responses written

	// Allocation pipeline.
	allocRequests   atomic.Int64 // requests that reached /allocate or /jobs
	cacheHits       atomic.Int64
	cacheMisses     atomic.Int64
	bodyDigestHits  atomic.Int64 // cache hits served by body digest, without a decode
	flightLeads     atomic.Int64 // singleflight leaders (one engine run each)
	flightShared    atomic.Int64 // followers served from a leader's run
	flightAbandoned atomic.Int64 // parked waiters whose request ctx expired first
	engineRuns      atomic.Int64 // engine invocations this server performed
	partials        atomic.Int64 // deadline-truncated 200s
	timeoutsEmpty   atomic.Int64 // 408s: deadline before any allocation
	queueRejected   atomic.Int64 // 429s

	// Gauges.
	queueDepth atomic.Int64 // requests admitted but waiting for a slot
	activeRuns atomic.Int64 // engine runs currently executing

	// Async jobs.
	jobsSubmitted atomic.Int64
	jobsFinished  atomic.Int64
	jobsRecovered atomic.Int64 // jobs replayed from the write-ahead journal at boot
	journalErrors atomic.Int64 // journal appends that failed or replay entries dropped

	latency histogram
}

func newMetrics() *metrics {
	return &metrics{respByCode: make(map[int]int64), latency: newHistogram()}
}

func (m *metrics) response(code int) {
	m.respMu.Lock()
	m.respByCode[code]++
	m.respMu.Unlock()
}

// responses snapshots the per-status-code counters in ascending code
// order.
func (m *metrics) responses() (codes []int, counts []int64) {
	m.respMu.Lock()
	defer m.respMu.Unlock()
	for code := range m.respByCode {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		counts = append(counts, m.respByCode[code])
	}
	return codes, counts
}

// histogram is a fixed-bucket latency histogram in milliseconds,
// rendered in Prometheus's cumulative-bucket convention.
type histogram struct {
	boundsMS []int64
	counts   []atomic.Int64 // len(boundsMS)+1; last is +Inf
	sumMS    atomic.Int64
	count    atomic.Int64
}

func newHistogram() histogram {
	bounds := []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}
	return histogram{boundsMS: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

func (h *histogram) observe(d time.Duration) {
	ms := d.Milliseconds()
	i := sort.Search(len(h.boundsMS), func(i int) bool { return ms <= h.boundsMS[i] })
	h.counts[i].Add(1)
	h.sumMS.Add(ms)
	h.count.Add(1)
}

// writePrometheus renders every counter, gauge and histogram in the
// Prometheus text exposition format, followed by the engine package's
// process-wide expvar counters.
func (m *metrics) writePrometheus(w io.Writer, cacheEntries int) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("salsa_http_requests_total", "HTTP requests received.", m.httpRequests.Load())
	fmt.Fprintf(w, "# HELP salsa_http_responses_total HTTP responses by status code.\n# TYPE salsa_http_responses_total counter\n")
	codes, counts := m.responses()
	for i, code := range codes {
		fmt.Fprintf(w, "salsa_http_responses_total{code=%q} %d\n", fmt.Sprint(code), counts[i])
	}
	counter("salsa_allocate_requests_total", "Allocation requests (sync and async).", m.allocRequests.Load())
	counter("salsa_cache_hits_total", "Result-cache hits.", m.cacheHits.Load())
	counter("salsa_cache_misses_total", "Result-cache misses.", m.cacheMisses.Load())
	counter("salsa_body_digest_hits_total", "Result-cache hits whose body the body table knew, served without decoding it.", m.bodyDigestHits.Load())
	gauge("salsa_cache_entries", "Result-cache resident entries.", int64(cacheEntries))
	counter("salsa_singleflight_leader_total", "Requests that led an engine run.", m.flightLeads.Load())
	counter("salsa_singleflight_shared_total", "Requests deduplicated onto an in-flight identical run.", m.flightShared.Load())
	counter("salsa_singleflight_abandoned_total", "Parked singleflight waiters whose request context expired before the leader finished.", m.flightAbandoned.Load())
	counter("salsa_engine_invocations_total", "Engine runs this server performed.", m.engineRuns.Load())
	counter("salsa_partial_results_total", "Deadline-truncated results served (HTTP 200, partial).", m.partials.Load())
	counter("salsa_deadline_empty_total", "Deadlines that fired before any allocation existed (HTTP 408).", m.timeoutsEmpty.Load())
	counter("salsa_queue_rejected_total", "Requests rejected by admission control (HTTP 429).", m.queueRejected.Load())
	gauge("salsa_queue_depth", "Requests admitted and waiting for an engine slot.", m.queueDepth.Load())
	gauge("salsa_active_runs", "Engine runs currently executing.", m.activeRuns.Load())
	counter("salsa_jobs_submitted_total", "Async jobs accepted.", m.jobsSubmitted.Load())
	counter("salsa_jobs_finished_total", "Async jobs completed (any terminal state).", m.jobsFinished.Load())
	counter("salsa_jobs_recovered_total", "Async jobs replayed from the write-ahead journal at boot.", m.jobsRecovered.Load())
	counter("salsa_journal_errors_total", "Journal appends that failed or replayed entries that were dropped.", m.journalErrors.Load())

	fmt.Fprintf(w, "# HELP salsa_request_duration_ms HTTP request latency.\n# TYPE salsa_request_duration_ms histogram\n")
	var cum int64
	for i, bound := range m.latency.boundsMS {
		cum += m.latency.counts[i].Load()
		fmt.Fprintf(w, "salsa_request_duration_ms_bucket{le=%q} %d\n", fmt.Sprint(bound), cum)
	}
	cum += m.latency.counts[len(m.latency.boundsMS)].Load()
	fmt.Fprintf(w, "salsa_request_duration_ms_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "salsa_request_duration_ms_sum %d\n", m.latency.sumMS.Load())
	fmt.Fprintf(w, "salsa_request_duration_ms_count %d\n", m.latency.count.Load())

	// The engine's process-wide counters, in their canonical order.
	eng := engine.Counters()
	for _, name := range engine.CounterNames() {
		counter(name, "Engine counter (process-wide, see internal/engine).", eng[name])
	}
}

// snapshot returns the service counters as a flat map, for the expvar
// publication and test reconciliation.
func (m *metrics) snapshot(cacheEntries int) map[string]int64 {
	out := map[string]int64{
		"http_requests_total":          m.httpRequests.Load(),
		"allocate_requests_total":      m.allocRequests.Load(),
		"cache_hits_total":             m.cacheHits.Load(),
		"cache_misses_total":           m.cacheMisses.Load(),
		"body_digest_hits_total":       m.bodyDigestHits.Load(),
		"cache_entries":                int64(cacheEntries),
		"singleflight_leader_total":    m.flightLeads.Load(),
		"singleflight_shared_total":    m.flightShared.Load(),
		"singleflight_abandoned_total": m.flightAbandoned.Load(),
		"engine_invocations_total":     m.engineRuns.Load(),
		"partial_results_total":        m.partials.Load(),
		"deadline_empty_total":         m.timeoutsEmpty.Load(),
		"queue_rejected_total":         m.queueRejected.Load(),
		"queue_depth":                  m.queueDepth.Load(),
		"active_runs":                  m.activeRuns.Load(),
		"jobs_submitted_total":         m.jobsSubmitted.Load(),
		"jobs_finished_total":          m.jobsFinished.Load(),
		"jobs_recovered_total":         m.jobsRecovered.Load(),
		"journal_errors_total":         m.journalErrors.Load(),
		"request_duration_ms_sum":      m.latency.sumMS.Load(),
		"request_duration_ms_count":    m.latency.count.Load(),
	}
	codes, counts := m.responses()
	for i, code := range codes {
		out[fmt.Sprintf("responses_total_%d", code)] = counts[i]
	}
	return out
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
			return srv.metrics.snapshot(srv.cache.Len())
		}))
	})
}
