// Package service is the resident serving layer over the allocation
// engine: a long-running HTTP/JSON daemon (cmd/salsad) that amortizes
// CDFG compile + portfolio-search cost across requests.
//
// The pipeline is deterministic end to end, which is what makes it
// cacheable: a complete allocation result is a pure function of
// (graph fingerprint, normalized options), independent of worker count
// and completion order (the engine's determinism contract). On top of
// that the server layers
//
//   - a content-addressed LRU result cache keyed by
//     (cdfg.Fingerprint, normalized options) storing exact response
//     bytes, so a hit is byte-identical to the miss that filled it;
//   - a body table in front of the decode: a POST /allocate or
//     POST /jobs body byte-identical to one that already decoded and
//     validated finds its content address by SHA-256 digest, and a
//     cached result is served without decoding the body again;
//   - singleflight deduplication: identical requests in flight collapse
//     to one engine run, followers share the leader's response bytes;
//   - admission control: a bounded wait queue in front of a bounded
//     engine-slot pool; overflow is rejected immediately with HTTP 429
//     and a Retry-After hint, so heavy traffic degrades by shedding
//     load, not by collapsing;
//   - per-request deadlines threaded into the engine's context
//     cancellation with anytime semantics: a deadline that fires
//     mid-search returns the best allocation found so far as HTTP 200
//     with "partial": true (never cached); one that fires before any
//     allocation exists returns HTTP 408;
//   - graceful drain: Drain flips /readyz to 503, rejects new
//     allocation work with 503, and waits for in-flight requests and
//     async jobs to complete (cmd/salsad calls it on SIGTERM);
//   - first-class observability: /metrics (Prometheus text format,
//     service counters + latency histogram + the engine's process-wide
//     expvar counters), /healthz, /readyz, and per-job progress from
//     engine telemetry via /jobs/{id}.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"salsa"
	"salsa/internal/clock"
	"salsa/internal/engine"
	"salsa/internal/journal"
	"salsa/internal/metrics"
)

// Config tunes one Server.
type Config struct {
	// CacheEntries bounds the result cache and the body table; 0
	// selects 256, negative disables both.
	CacheEntries int
	// MaxConcurrent bounds simultaneous engine runs; 0 selects 2.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an engine slot; beyond it
	// admission control answers 429. 0 selects 64.
	MaxQueue int
	// DefaultTimeout applies when a request carries no timeout_ms;
	// 0 selects 30s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request deadlines; 0 selects 2m.
	MaxTimeout time.Duration
	// EngineWorkers, when positive, is every engine run's worker count.
	// 0 (or negative) gives a run its share of the cores once it holds
	// an engine slot: GOMAXPROCS divided by the runs holding a slot,
	// itself included, and at least 1. A lone run keeps every core, and
	// concurrent runs share the cores instead of each taking them all.
	EngineWorkers int
	// MaxJobs bounds the live (queued or running) async jobs; 0 selects
	// 1024. Finished jobs do not count toward it: the registry keeps
	// the 1024 most recently finished ones and retires older ones.
	MaxJobs int
	// Journal, when non-nil, makes async jobs durable: acceptances and
	// terminal outcomes are fsynced to it before they are acknowledged,
	// and New replays its states — terminal jobs byte-identically,
	// in-flight jobs by re-enqueuing them. The caller opens it
	// (journal.Open) and owns closing it after Drain. Nil disables
	// durability (jobs die with the process, the pre-journal behavior).
	Journal *journal.Journal
	// Hooks, when non-nil, installs test-only instrumentation (virtual
	// clock, fault injection). Always nil in production; see Hooks.
	Hooks *Hooks
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	return c
}

// Server is one allocation service instance. Construct with New, mount
// Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	cfg      Config
	metrics  *serverMetrics
	registry *metrics.Registry
	cache    *ResultCache
	bodies   *BodyTable
	flight   *flightGroup
	jobs     *jobRegistry
	// journal is Config.Journal (nil when durability is disabled).
	journal *journal.Journal
	// clock is the server's time source: the system clock in
	// production, a virtual clock under the simulation harness.
	clock clock.Clock
	// hooks is Config.Hooks (nil in production); see Hooks.
	hooks *Hooks

	// sem holds one token per running engine invocation.
	sem      chan struct{}
	draining atomic.Bool
	// work tracks in-flight allocation work (sync handlers and async
	// job goroutines) for Drain.
	work sync.WaitGroup

	// execute performs one compiled allocation; tests substitute it to
	// inject synchronization and capture results. Defaults to
	// salsa.Execute.
	execute func(ctx context.Context, req salsa.Request) (*salsa.Design, *salsa.Result, *salsa.Stats, error)
	// runStarted, when non-nil, is called by a singleflight leader
	// after admission (holding an engine slot) and before the engine
	// run — the test hook that makes collapse and overflow scenarios
	// deterministic.
	runStarted func(spec *allocSpec)
}

// New builds a Server with cfg's zero values replaced by defaults.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	clk := clock.Clock(clock.System{})
	if cfg.Hooks != nil && cfg.Hooks.Clock != nil {
		clk = cfg.Hooks.Clock
	}
	s := &Server{
		cfg:     cfg,
		metrics: &serverMetrics{},
		cache:   NewResultCache(cfg.CacheEntries),
		bodies:  NewBodyTable(cfg.CacheEntries),
		flight:  newFlightGroup(),
		jobs:    newJobRegistry(cfg.MaxJobs, retainFinished, clk),
		journal: cfg.Journal,
		clock:   clk,
		hooks:   cfg.Hooks,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		execute: salsa.Execute,
	}
	if cfg.Hooks != nil {
		s.flight.fault = cfg.Hooks.FlightFault
	}
	s.metrics.CacheEntries = func() int64 { return int64(s.cache.Len()) }
	s.registry = metrics.New(s.metrics, "salsa_")
	publishExpvar(s)
	if s.journal != nil {
		s.recoverJobs()
	}
	return s
}

// recoverJobs replays the journal at boot, taking its states so that
// the journal keeps none of them. Terminal jobs come back
// byte-identical with elapsed_ms frozen at the original completion,
// and retire under the registry's usual rule, oldest first.
// Non-terminal jobs — accepted and acknowledged, then orphaned by the
// crash — are re-parsed from their journaled request bytes and
// re-enqueued through the normal allocation path: determinism
// guarantees the re-run's body matches what the dead process would
// have produced. An entry that cannot be replayed (undecodable
// request, or options that no longer match — a journal written by a
// different codebase) is dropped and counted in journal_errors_total
// rather than resurrected wrong.
func (s *Server) recoverJobs() {
	for _, st := range s.journal.TakeStates() {
		j, ok := s.jobs.restore(st.ID)
		if !ok {
			s.metrics.JournalErrors.Add(1)
			continue
		}
		if st.Terminal {
			j.restoreTerminal(st.Status, st.Body, st.Merged, st.ElapsedMS)
			s.jobs.finished(j)
			s.metrics.JobsRecovered.Add(1)
			continue
		}
		var ar AllocateRequest
		if err := json.Unmarshal(st.Request, &ar); err != nil {
			s.jobs.remove(st.ID)
			s.metrics.JournalErrors.Add(1)
			continue
		}
		spec, err := s.parseRequest(&ar)
		if err != nil || spec.key != st.Options {
			s.jobs.remove(st.ID)
			s.metrics.JournalErrors.Add(1)
			continue
		}
		s.metrics.JobsRecovered.Add(1)
		s.startJob(j, spec)
	}
}

// MetricsSnapshot returns the service counters and gauges as a flat
// map — the same document the salsa_service expvar publishes. The
// simulation harness and property tests reconcile observed responses
// against it.
func (s *Server) MetricsSnapshot() map[string]int64 {
	return s.registry.Snapshot()
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /allocate", s.instrument(s.handleAllocate))
	mux.HandleFunc("POST /jobs", s.instrument(s.handleSubmitJob))
	mux.HandleFunc("GET /jobs/{id}", s.instrument(s.handleJobStatus))
	mux.HandleFunc("GET /healthz", s.instrument(s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument(s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.instrument(s.handleMetrics))
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// StartDrain enters drain mode without waiting: /readyz turns 503 and
// new allocation work is rejected with 503, while in-flight work keeps
// running. Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain enters drain mode — /readyz turns 503, new allocation work is
// rejected with 503 — and waits for in-flight requests and async jobs
// to finish, or for ctx to expire. It is idempotent; cmd/salsad calls
// it on SIGTERM alongside http.Server.Shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.work.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool { return s.draining.Load() }

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// instrument wraps a handler with request counting, status accounting
// and the latency histogram.
func (s *Server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := s.clock.Now()
		s.metrics.HTTPRequests.Add(1)
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.metrics.Responses.Inc(rec.status)
		s.metrics.Latency.Observe(s.clock.Since(t0))
	}
}

// outcome is one allocation attempt's HTTP result, shared verbatim by
// singleflight followers (so their bodies are byte-identical to the
// leader's).
type outcome struct {
	status     int
	body       []byte
	retryAfter string
	partial    bool
}

func (s *Server) respond(w http.ResponseWriter, out *outcome) {
	if out.retryAfter != "" {
		w.Header().Set("Retry-After", out.retryAfter)
	}
	writeJSON(w, out.status, out.body)
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The response writer's error has nowhere useful to go: the client
	// is gone. The status accounting above already recorded the
	// request.
	_, _ = w.Write(body)
}

// ReadBody reads a request body under the MaxBodyBytes bound; on
// failure it writes the error response, 413 or 400, and returns false.
// salsad and the cluster router both read bodies through it.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				ErrorBody(fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)))
			return nil, false
		}
		writeJSON(w, http.StatusBadRequest, ErrorBody("reading request body: "+err.Error()))
		return nil, false
	}
	return body, true
}

// decodeRequest parses and validates the wire request; on failure it
// writes the error response and returns nil.
func (s *Server) decodeRequest(w http.ResponseWriter, body []byte) *allocSpec {
	var ar AllocateRequest
	if err := json.Unmarshal(body, &ar); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody("decoding request: "+err.Error()))
		return nil
	}
	spec, err := s.parseRequest(&ar)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody(err.Error()))
		return nil
	}
	return spec
}

// retryAfterSeconds derives the Retry-After hint from the load the
// server can actually see: the requests already waiting for an engine
// slot, batched by the slot count, at a nominal second per batch —
// ceil((queued+1)/maxConcurrent) — clamped to [1, 30] so the hint
// stays useful whatever the backlog. Every rejection path (admission
// 429, drain 503, job-registry 429) shares this one derivation.
func retryAfterSeconds(queued, maxConcurrent int) int {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	if queued < 0 {
		queued = 0
	}
	secs := queued/maxConcurrent + 1
	if secs > 30 {
		secs = 30
	}
	return secs
}

// retryAfterHint renders retryAfterSeconds for the current queue.
func (s *Server) retryAfterHint() string {
	return strconv.Itoa(retryAfterSeconds(int(s.metrics.QueueDepth.Load()), s.cfg.MaxConcurrent))
}

// cacheGet performs one result-cache lookup, honoring the simulation
// harness's forced-eviction hook.
func (s *Server) cacheGet(key string) ([]byte, bool) {
	if s.hooks != nil && s.hooks.EvictCache != nil && s.hooks.EvictCache(key) {
		s.cache.remove(key)
	}
	return s.cache.Get(key)
}

// rejectDraining answers 503 during drain; reports whether it did.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", s.retryAfterHint())
	writeJSON(w, http.StatusServiceUnavailable, ErrorBody("server is draining"))
	return true
}

// handleAllocate is the synchronous allocation endpoint. A body the
// body table knows, whose result is cached, is served without being
// decoded; anything else is decoded, validated and then recorded in
// the table.
func (s *Server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	s.metrics.AllocRequests.Add(1)
	if s.rejectDraining(w) {
		return
	}
	s.work.Add(1)
	defer s.work.Done()
	body, ok := ReadBody(w, r)
	if !ok {
		return
	}
	digest, addr, known := s.bodies.Lookup(body)
	if known {
		if cached, hit := s.cacheGet(addr.Key); hit {
			s.metrics.BodyDigestHits.Add(1)
			s.serveHit(w, cached)
			return
		}
	}
	spec := s.decodeRequest(w, body)
	if spec == nil {
		return
	}
	s.bodies.Record(digest, ContentAddr{Fingerprint: spec.fingerprint, Key: spec.key})
	if cached, hit := s.cacheGet(spec.key); hit {
		s.serveHit(w, cached)
		return
	}
	s.metrics.CacheMisses.Add(1)
	w.Header().Set("X-Salsa-Cache", "miss")
	out, shared, err := s.flight.do(r.Context(), spec.key, func() *outcome { return s.runAllocation(spec) })
	if err != nil {
		// This caller was parked behind an identical in-flight run and
		// its own request context expired first. The leader keeps
		// running (and still fills the cache); this caller alone gives
		// up with 408.
		s.metrics.FlightAbandoned.Add(1)
		writeJSON(w, http.StatusRequestTimeout,
			ErrorBody("request abandoned while waiting on an identical in-flight run: "+err.Error()))
		return
	}
	if shared {
		s.metrics.FlightShared.Add(1)
		w.Header().Set("X-Salsa-Flight", "shared")
	} else {
		s.metrics.FlightLeads.Add(1)
	}
	s.respond(w, out)
}

// serveHit answers a synchronous request from the result cache.
func (s *Server) serveHit(w http.ResponseWriter, body []byte) {
	s.metrics.CacheHits.Add(1)
	w.Header().Set("X-Salsa-Cache", "hit")
	writeJSON(w, http.StatusOK, body)
}

// handleSubmitJob is the asynchronous submission endpoint: it answers
// 202 with a job ID immediately and runs the allocation in the
// background, exposing engine telemetry as progress on /jobs/{id}. A
// body the body table knows, whose result is cached, is accepted
// without being decoded, and a job whose result is cached finishes
// before its 202.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	s.metrics.AllocRequests.Add(1)
	if s.rejectDraining(w) {
		return
	}
	s.work.Add(1)
	defer s.work.Done()
	body, ok := ReadBody(w, r)
	if !ok {
		return
	}
	var spec *allocSpec
	var cached []byte
	hit := false
	digest, addr, known := s.bodies.Lookup(body)
	if known {
		cached, hit = s.cacheGet(addr.Key)
	}
	if !hit {
		if spec = s.decodeRequest(w, body); spec == nil {
			return
		}
		addr = ContentAddr{Fingerprint: spec.fingerprint, Key: spec.key}
		s.bodies.Record(digest, addr)
		cached, hit = s.cacheGet(addr.Key)
	}
	j, err := s.jobs.create(addr.Key)
	if err != nil {
		w.Header().Set("Retry-After", s.retryAfterHint())
		writeJSON(w, http.StatusTooManyRequests, ErrorBody(err.Error()))
		return
	}
	// Durability before acknowledgement: the acceptance reaches disk
	// before the 202 does the wire, so a crash can never forget a job a
	// client was told about. A cached result goes into the same write,
	// so the job is finished at the cost of that one fsync. An append
	// failure unwinds the admission — the client retries against a
	// shard whose disk works.
	now := s.clock.Now()
	if s.journal != nil {
		recs := []journal.Record{journal.Accepted(j.id, body, addr.Key)}
		if hit {
			recs = append(recs, journal.Result(j.id, http.StatusOK, cached, true, now.Sub(j.created).Milliseconds()))
		}
		if jerr := s.journal.AppendAll(recs, true); jerr != nil {
			s.metrics.JournalErrors.Add(1)
			s.jobs.remove(j.id)
			w.Header().Set("Retry-After", s.retryAfterHint())
			writeJSON(w, http.StatusServiceUnavailable, ErrorBody("journal write failed: "+jerr.Error()))
			return
		}
	}
	s.metrics.JobsSubmitted.Add(1)
	if hit {
		s.metrics.CacheHits.Add(1)
		if spec == nil {
			s.metrics.BodyDigestHits.Add(1)
		}
		s.completeJob(j, now, &outcome{status: http.StatusOK, body: cached}, true)
	} else {
		s.startJob(j, spec)
	}
	resp, merr := json.Marshal(map[string]string{"id": j.id, "status_url": "/jobs/" + j.id})
	if merr != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorBody("encoding response: "+merr.Error()))
		return
	}
	writeJSON(w, http.StatusAccepted, append(resp, '\n'))
}

// startJob runs one accepted job to its terminal state: from the cache
// when possible, otherwise in a background goroutine through
// singleflight and the engine. Shared by fresh submissions that missed
// the cache and by journal recovery, so a re-enqueued job takes the
// path its original submission took.
func (s *Server) startJob(j *job, spec *allocSpec) {
	if body, ok := s.cacheGet(spec.key); ok {
		s.metrics.CacheHits.Add(1)
		s.finishJob(j, &outcome{status: http.StatusOK, body: body}, true)
		return
	}
	s.metrics.CacheMisses.Add(1)
	// Progress events only flow when this job leads its own engine
	// run; a shared run completes the job without per-trial
	// progress (Merged marks that).
	spec.req.Engine.Events = j.engineEvent
	s.work.Add(1)
	go func() {
		defer s.work.Done()
		j.setState(jobRunning)
		// The job deliberately outlives the submitting request: its
		// lifetime is the engine run's, so it waits on a background
		// context, never the request's.
		//lint:ctxflow async job survives the submitting request by design
		out, shared, ferr := s.flight.do(context.Background(), spec.key, func() *outcome { return s.runAllocation(spec) })
		if ferr != nil {
			// Only an injected wakeup fault can get here: a
			// background context never expires on its own. The job
			// fails the same way an abandoned synchronous waiter
			// does.
			s.metrics.FlightAbandoned.Add(1)
			s.finishJob(j, &outcome{status: http.StatusRequestTimeout,
				body: ErrorBody("job abandoned while waiting on an identical in-flight run: " + ferr.Error())}, false)
			return
		}
		if shared {
			s.metrics.FlightShared.Add(1)
		} else {
			s.metrics.FlightLeads.Add(1)
		}
		s.finishJob(j, out, shared)
	}()
}

// finishJob journals the terminal outcome (fsynced — the result must
// survive any later crash, because polls will serve it) and then makes
// it visible to polls. One clock reading feeds both the journaled and
// the served elapsed time, so a recovery after this point freezes
// exactly the number a pre-crash poll saw.
func (s *Server) finishJob(j *job, out *outcome, merged bool) {
	now := s.clock.Now()
	if s.journal != nil {
		elapsed := now.Sub(j.created).Milliseconds()
		if jerr := s.journal.Append(journal.Result(j.id, out.status, out.body, merged, elapsed), true); jerr != nil {
			// The outcome still stands — recomputing it after a crash
			// yields the same bytes — so serve it and count the append
			// failure rather than failing a finished job.
			s.metrics.JournalErrors.Add(1)
		}
	}
	s.completeJob(j, now, out, merged)
}

// completeJob makes a journaled terminal outcome visible to polls and
// hands the job to the registry's retention.
func (s *Server) completeJob(j *job, now time.Time, out *outcome, merged bool) {
	j.finishAt(now, out.status, out.body, merged)
	s.jobs.finished(j)
	s.metrics.JobsFinished.Add(1)
}

// handleJobStatus reports an async job's state, progress and result.
// A job the registry has retired answers 410 Gone, which a cluster
// router passes through; a 404 makes the router declare the job lost.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, gone := s.jobs.get(id)
	if gone {
		writeJSON(w, http.StatusGone, ErrorBody("job "+id+
			" finished and was retired; resubmit the request (idempotent by content address)"))
		return
	}
	if j == nil {
		writeJSON(w, http.StatusNotFound, ErrorBody("unknown job "+id))
		return
	}
	body, err := json.Marshal(j.statusJSON())
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorBody("encoding status: "+err.Error()))
		return
	}
	writeJSON(w, http.StatusOK, append(body, '\n'))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, []byte("{\"status\":\"ok\"}\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, []byte("{\"status\":\"draining\"}\n"))
		return
	}
	writeJSON(w, http.StatusOK, []byte("{\"status\":\"ready\"}\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.registry.WritePrometheus(w)
	engine.Metrics().WritePrometheus(w)
}

// runAllocation is the singleflight leader's path: admission control,
// then one engine run under the request deadline, then response
// assembly and cache fill.
func (s *Server) runAllocation(spec *allocSpec) *outcome {
	// Admission: join the bounded wait queue, or shed load now. The
	// queue-depth gauge doubles as the admission counter so the
	// rejection decision and the metric can never disagree.
	if depth := s.metrics.QueueDepth.Add(1); depth > int64(s.cfg.MaxQueue) {
		s.metrics.QueueDepth.Add(-1)
		s.metrics.QueueRejected.Add(1)
		return &outcome{
			status:     http.StatusTooManyRequests,
			body:       ErrorBody(fmt.Sprintf("admission queue full (%d waiting)", depth-1)),
			retryAfter: s.retryAfterHint(),
		}
	}
	// The request deadline starts at admission, not at slot acquisition:
	// time spent queued counts against it, so a waiter whose deadline
	// expires in the queue gives up its slot claim (draining the queue
	// by one) and answers 408 — the 429-vs-408 boundary is "rejected on
	// arrival" vs "admitted but timed out waiting".
	ctx, cancel := clock.WithTimeout(context.Background(), s.clock, spec.timeout)
	defer cancel()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.metrics.QueueDepth.Add(-1)
		s.metrics.TimeoutsEmpty.Add(1)
		return &outcome{status: http.StatusRequestTimeout,
			body: ErrorBody("deadline expired while queued for an engine slot; raise timeout_ms or retry later")}
	}
	s.metrics.QueueDepth.Add(-1)
	defer func() { <-s.sem }()
	// Size the run to its share of the cores (see Config.EngineWorkers).
	req := spec.req
	req.Engine.Workers = s.cfg.EngineWorkers
	if req.Engine.Workers <= 0 {
		req.Engine.Workers = max(1, runtime.GOMAXPROCS(0)/len(s.sem))
	}
	s.metrics.ActiveRuns.Add(1)
	defer s.metrics.ActiveRuns.Add(-1)
	s.metrics.EngineRuns.Add(1)
	if s.runStarted != nil {
		s.runStarted(spec)
	}

	des, res, stats, err := s.execute(ctx, req)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			// The deadline fired before any legal allocation existed:
			// there is no incumbent to return. The client's deadline
			// caused it, so this is a 4xx, not a server failure.
			s.metrics.TimeoutsEmpty.Add(1)
			return &outcome{status: http.StatusRequestTimeout,
				body: ErrorBody("deadline expired before any allocation was found; raise timeout_ms")}
		}
		return &outcome{status: http.StatusUnprocessableEntity, body: ErrorBody(err.Error())}
	}
	// Defense in depth: never serve (or cache) an illegal binding.
	if cerr := res.Binding.Check(); cerr != nil {
		return &outcome{status: http.StatusInternalServerError,
			body: ErrorBody("internal: allocation failed legality check: " + cerr.Error())}
	}
	rj := salsa.BuildResultJSON(spec.req.Graph, des.Steps(), spec.req.Mode, spec.req.Seed, spec.req.Restarts, res, stats)
	body, merr := json.Marshal(rj)
	if merr != nil {
		return &outcome{status: http.StatusInternalServerError, body: ErrorBody("encoding result: " + merr.Error())}
	}
	body = append(body, '\n')
	if rj.Partial {
		// A truncated result is timing-dependent: correct to serve,
		// wrong to cache under a deterministic content address.
		s.metrics.Partials.Add(1)
	} else {
		s.cache.Put(spec.key, body)
	}
	return &outcome{status: http.StatusOK, body: body, partial: rj.Partial}
}
