package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"salsa/internal/client"
	"salsa/internal/clock"
	"salsa/internal/metrics"
	"salsa/internal/service"
)

// Config tunes one Router.
type Config struct {
	// Backends are the salsad base URLs the router shards over, e.g.
	// "http://127.0.0.1:18081". Required, at least one; trailing
	// slashes are trimmed; duplicates are an error (one backend would
	// hold two shard indexes).
	Backends []string
	// Clock is the router's time source: probe scheduling, probe
	// timeouts and proxy backoff all read it. Nil selects the system
	// clock; the simulation harness substitutes a virtual one.
	Clock clock.Clock
	// Doer performs HTTP round trips for probes and proxied exchanges.
	// Nil selects http.DefaultClient.
	Doer client.Doer
	// ProbeInterval spaces /readyz polls per backend; 0 selects 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe exchange; 0 selects 2s.
	ProbeTimeout time.Duration
	// FailAfter is how many consecutive probe failures demote a backend
	// to unhealthy (re-homing its keys); 0 selects 2. Recovery is
	// immediate: one good probe readmits.
	FailAfter int
	// CacheEntries bounds the router's response cache; 0 selects 128,
	// negative disables it and the body table. The body table holds
	// (1 + len(Backends)) × CacheEntries entries: one share for the
	// router's cache and one per backend's, since salsad gives the
	// router and its backends one cache size.
	CacheEntries int
	// ProxyAttempts is the per-backend retry budget of one proxied
	// exchange before failing over to the next healthy backend in the
	// key's placement order; 0 selects 2.
	ProxyAttempts int
	// ProxyBackoff is the base backoff between per-backend retries;
	// 0 selects 50ms.
	ProxyBackoff time.Duration
	// Seed feeds the proxy clients' jitter streams.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.System{}
	}
	if c.Doer == nil {
		c.Doer = http.DefaultClient
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.ProxyAttempts <= 0 {
		c.ProxyAttempts = 2
	}
	if c.ProxyBackoff <= 0 {
		c.ProxyBackoff = 50 * time.Millisecond
	}
	return c
}

// Router proxies the salsad API to backends placed by rendezvous
// hashing. Construct with New, call Start to begin health probing,
// mount Handler on an http.Server, and call Drain on shutdown. The
// router holds no allocation state of its own beyond a response cache
// and a body table, so any number of router instances can front the
// same fleet.
type Router struct {
	cfg      Config
	clock    clock.Clock
	metrics  *routerMetrics
	registry *metrics.Registry
	cache    *service.ResultCache
	bodies   *service.BodyTable
	// full is the placement over every configured backend, healthy or
	// not: sequence filters its order by health, and its owner is the
	// reference re-homing is counted against. Immutable after
	// construction.
	full *Ring
	// clients maps each backend to its retrying proxy client.
	// Immutable after construction.
	clients map[string]*client.Client
	// index maps each backend to its stable position in cfg.Backends —
	// the shard number async job IDs are pinned with. Immutable after
	// construction (job pins must survive membership churn, so the pin
	// is the configured position, never a placement).
	index   map[string]int
	byIndex []string

	mu      sync.Mutex
	healthy map[string]bool // guarded by mu
	fails   map[string]int  // guarded by mu; consecutive probe failures

	draining atomic.Bool
	// work tracks in-flight proxied requests for Drain.
	work sync.WaitGroup
}

// New builds a Router over cfg.Backends. All backends start healthy
// (optimistic: the router is usable before the first probe lands);
// Start begins demoting the ones that fail their probes.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	backends := make([]string, len(cfg.Backends))
	seen := make(map[string]bool, len(cfg.Backends))
	for i, b := range cfg.Backends {
		b = strings.TrimRight(b, "/")
		if b == "" {
			return nil, fmt.Errorf("cluster: backend %d is empty", i)
		}
		if seen[b] {
			return nil, fmt.Errorf("cluster: duplicate backend %s", b)
		}
		seen[b] = true
		backends[i] = b
	}
	cfg.Backends = backends
	r := &Router{
		cfg:     cfg,
		clock:   cfg.Clock,
		metrics: &routerMetrics{},
		cache:   service.NewResultCache(cfg.CacheEntries),
		bodies:  service.NewBodyTable((1 + len(backends)) * cfg.CacheEntries),
		full:    NewRing(backends, 0),
		clients: make(map[string]*client.Client, len(backends)),
		index:   make(map[string]int, len(backends)),
		byIndex: backends,
		healthy: make(map[string]bool, len(backends)),
		fails:   make(map[string]int, len(backends)),
	}
	for i, b := range backends {
		r.index[b] = i
		r.healthy[b] = true
		r.clients[b] = client.New(client.Config{
			BaseURL:     b,
			Doer:        cfg.Doer,
			Clock:       cfg.Clock,
			MaxAttempts: cfg.ProxyAttempts,
			BaseBackoff: cfg.ProxyBackoff,
			MaxBackoff:  10 * cfg.ProxyBackoff,
			Seed:        cfg.Seed + int64(i),
		})
	}
	r.metrics.BackendHealthy = r.backendHealth
	r.metrics.CacheEntries = func() int64 { return int64(r.cache.Len()) }
	r.registry = metrics.New(r.metrics, "salsa_router_")
	return r, nil
}

// Start launches one health-probe loop per backend. The loops exit
// when ctx is cancelled; Start returns immediately.
func (r *Router) Start(ctx context.Context) {
	for _, b := range r.cfg.Backends {
		go r.probeLoop(ctx, b)
	}
}

// probeLoop polls one backend's /readyz forever, demoting it after
// FailAfter consecutive failures and readmitting it on the first
// success. All waiting goes through the injected clock, so the
// simulation harness runs membership churn in virtual time.
func (r *Router) probeLoop(ctx context.Context, backend string) {
	for {
		r.setHealth(backend, r.probe(ctx, backend))
		if err := r.clock.Sleep(ctx, r.cfg.ProbeInterval); err != nil {
			return
		}
	}
}

// probe performs one /readyz exchange; healthy means HTTP 200 within
// the probe timeout.
func (r *Router) probe(ctx context.Context, backend string) bool {
	pctx, cancel := clock.WithTimeout(ctx, r.clock, r.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, backend+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := r.cfg.Doer.Do(req)
	if err != nil {
		return false
	}
	// Drain so the transport can reuse the connection; the status is
	// the whole answer.
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// setHealth folds one probe outcome into the membership view. A
// member's placement score does not depend on the other members, so
// the view is the health map alone: sequence filters the full
// placement order by it.
func (r *Router) setHealth(backend string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ok {
		r.fails[backend] = 0
		r.healthy[backend] = true
		return
	}
	r.fails[backend]++
	if r.fails[backend] >= r.cfg.FailAfter {
		r.healthy[backend] = false
	}
}

// Owner reports which configured backend owns key over the full
// membership, health ignored — for harnesses that need to aim chaos at
// the shard a particular workload lives on.
func (r *Router) Owner(key string) (string, bool) { return r.full.Owner(key) }

// Healthy snapshots the current healthy backends in configured order.
func (r *Router) Healthy() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.byIndex))
	for _, b := range r.byIndex {
		if r.healthy[b] {
			out = append(out, b)
		}
	}
	return out
}

// backendHealth reports each configured backend's health by probe, 1
// healthy and 0 not, in configured order.
func (r *Router) backendHealth(emit func(backend string, v int64)) {
	healthy := r.Healthy()
	for _, b := range r.byIndex {
		var v int64
		if slices.Contains(healthy, b) {
			v = 1
		}
		emit(b, v)
	}
}

// MetricsSnapshot returns the router's metrics as a flat map for tests
// and the simulation harness.
func (r *Router) MetricsSnapshot() map[string]int64 { return r.registry.Snapshot() }

// Handler returns the router's HTTP mux: the same surface a single
// salsad serves, so clients cannot tell a router from a backend.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /allocate", r.handleAllocate)
	mux.HandleFunc("POST /jobs", r.handleSubmitJob)
	mux.HandleFunc("GET /jobs/{id}", r.handleJobStatus)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /readyz", r.handleReadyz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	return mux
}

// StartDrain enters drain mode without waiting: /readyz turns 503 and
// new proxied work is rejected with 503, while in-flight exchanges
// keep running. Idempotent.
func (r *Router) StartDrain() { r.draining.Store(true) }

// Drain enters drain mode and waits for in-flight proxied exchanges to
// finish, or for ctx to expire. cmd/salsad calls it on SIGTERM
// alongside http.Server.Shutdown, before the backends themselves are
// drained (router first, so no new work reaches a draining backend).
func (r *Router) Drain(ctx context.Context) error {
	r.draining.Store(true)
	done := make(chan struct{})
	go func() {
		r.work.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("cluster: drain interrupted: %w", ctx.Err())
	}
}

// errNoBackend is proxy's answer when no backend is healthy.
var errNoBackend = errors.New("no healthy backend")

// sequence returns the key's failover order over the healthy backends
// and reports whether its first choice differs from the
// full-membership owner (the key has been re-homed). Filtering the
// full order equals the order over the healthy set alone, because
// dropping members leaves the others' relative order unchanged.
func (r *Router) sequence(ringKey string) (seq []string, rehomed bool) {
	order := r.full.Sequence(ringKey)
	r.mu.Lock()
	for _, b := range order {
		if r.healthy[b] {
			seq = append(seq, b)
		}
	}
	r.mu.Unlock()
	return seq, len(seq) > 0 && seq[0] != order[0]
}

// proxy performs one exchange against the key's shard, failing over
// along its healthy order on transport errors and 5xx answers. It
// returns the first conclusive response plus the backend that served
// it.
func (r *Router) proxy(ctx context.Context, method, path string, body []byte, ringKey string) (*client.HTTPResult, string, error) {
	seq, rehomed := r.sequence(ringKey)
	if len(seq) == 0 {
		r.metrics.NoBackend.Add(1)
		return nil, "", errNoBackend
	}
	if rehomed {
		r.metrics.Rehomed.Add(1)
	}
	var lastErr error
	for i, b := range seq {
		if i > 0 {
			r.metrics.Failovers.Add(1)
		}
		r.metrics.Routed.Add(1)
		res, err := r.clients[b].Roundtrip(ctx, method, path, body)
		if err != nil {
			lastErr = err
			continue
		}
		if res.Status >= 500 {
			// The backend answered but is in trouble (or an intermediary
			// is); the next backend in the order computes the identical
			// result.
			lastErr = &client.HTTPError{Status: res.Status, Body: res.Body}
			continue
		}
		r.metrics.Served.Inc(b)
		return res, b, nil
	}
	return nil, "", fmt.Errorf("all %d backends failed: %w", len(seq), lastErr)
}

// passthrough relays a backend response, preserving the headers that
// carry semantics (content type, retry hints, cache and flight
// provenance) and stamping the serving shard.
func passthrough(w http.ResponseWriter, res *client.HTTPResult, backend string) {
	for _, h := range []string{"Content-Type", "Retry-After", "X-Salsa-Cache", "X-Salsa-Flight"} {
		if v := res.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Salsa-Shard", backend)
	w.WriteHeader(res.Status)
	// The client may be gone; there is nowhere useful for the error.
	_, _ = w.Write(res.Body)
}

// writeError renders the service's uniform error document.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(service.ErrorBody(msg))
}

// writeUnavailable is the shared 503 path: drain, no healthy backend,
// or an exhausted failover sequence. Always carries Retry-After so
// clients back off instead of hammering.
func writeUnavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, msg)
}

// rejectDraining answers 503 during drain; reports whether it did.
func (r *Router) rejectDraining(w http.ResponseWriter) bool {
	if !r.draining.Load() {
		return false
	}
	writeUnavailable(w, "router is draining")
	return true
}

// contentKeyOf returns the wire request's content address, which both
// routes it and keys the router cache. A body the body table knows is
// not decoded; any other is decoded just enough to compute the address
// and then recorded. The router answers 400 itself on malformed
// requests (it validates exactly as the backend would, so a request it
// forwards is never bounced as malformed by the shard).
func (r *Router) contentKeyOf(w http.ResponseWriter, body []byte) (service.ContentAddr, bool) {
	digest, addr, known := r.bodies.Lookup(body)
	if known {
		r.metrics.BodyDigestHits.Add(1)
		return addr, true
	}
	var ar service.AllocateRequest
	if err := json.Unmarshal(body, &ar); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return service.ContentAddr{}, false
	}
	fp, key, err := ar.ContentKey()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return service.ContentAddr{}, false
	}
	addr = service.ContentAddr{Fingerprint: fp, Key: key}
	r.bodies.Record(digest, addr)
	return addr, true
}

// handleAllocate proxies one synchronous allocation to the
// fingerprint's shard, serving hot fingerprints from the router cache
// without crossing the network at all.
func (r *Router) handleAllocate(w http.ResponseWriter, req *http.Request) {
	r.metrics.Requests.Add(1)
	if r.rejectDraining(w) {
		return
	}
	r.work.Add(1)
	defer r.work.Done()
	body, ok := service.ReadBody(w, req)
	if !ok {
		return
	}
	addr, ok := r.contentKeyOf(w, body)
	if !ok {
		return
	}
	if cached, hit := r.cache.Get(addr.Key); hit {
		r.metrics.CacheHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Salsa-Cache", "hit")
		w.Header().Set("X-Salsa-Shard", "router")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(cached)
		return
	}
	r.metrics.CacheMisses.Add(1)
	res, backend, err := r.proxy(req.Context(), http.MethodPost, "/allocate", body, addr.Fingerprint)
	if err != nil {
		writeUnavailable(w, "cluster: "+err.Error())
		return
	}
	passthrough(w, res, backend)
	if res.Status == http.StatusOK && !isPartial(res.Body) {
		r.cache.Put(addr.Key, res.Body)
	}
}

// isPartial reports whether a 200 body is a deadline-truncated result.
// Partials are timing-dependent: correct to relay, wrong to cache.
func isPartial(body []byte) bool {
	var doc struct {
		Partial bool `json:"partial"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		// Unparseable 200s are not cached either.
		return true
	}
	return doc.Partial
}

// jobID matches the router's prefixed job IDs: s<shard>-<backend id>.
var jobID = regexp.MustCompile(`^s(\d+)-(.+)$`)

// handleSubmitJob proxies an async submission to the fingerprint's
// shard and pins the job there by prefixing the returned ID with the
// shard number, so every later poll routes back to the owning backend
// without any router-side job state.
func (r *Router) handleSubmitJob(w http.ResponseWriter, req *http.Request) {
	r.metrics.Requests.Add(1)
	if r.rejectDraining(w) {
		return
	}
	r.work.Add(1)
	defer r.work.Done()
	body, ok := service.ReadBody(w, req)
	if !ok {
		return
	}
	addr, ok := r.contentKeyOf(w, body)
	if !ok {
		return
	}
	res, backend, err := r.proxy(req.Context(), http.MethodPost, "/jobs", body, addr.Fingerprint)
	if err != nil {
		writeUnavailable(w, "cluster: "+err.Error())
		return
	}
	if res.Status != http.StatusAccepted {
		passthrough(w, res, backend)
		return
	}
	var doc struct {
		ID string `json:"id"`
	}
	if jerr := json.Unmarshal(res.Body, &doc); jerr != nil || doc.ID == "" {
		writeError(w, http.StatusBadGateway, fmt.Sprintf("malformed job submission from %s: %q", backend, res.Body))
		return
	}
	pinned := fmt.Sprintf("s%d-%s", r.index[backend], doc.ID)
	out, merr := json.Marshal(map[string]string{"id": pinned, "status_url": "/jobs/" + pinned})
	if merr != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: "+merr.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Salsa-Shard", backend)
	w.WriteHeader(http.StatusAccepted)
	_, _ = w.Write(append(out, '\n'))
}

// handleJobStatus proxies a poll to the job's pinned shard, the one
// authority on it: a job ID is the accepting process's sequence number
// plus a hash of the content key, and a salsad replays only its own
// journal, so no other member can hold the job. An ID whose backend
// part is not one a service issues (service.ValidJobID) is an unknown
// job: 404, with nothing proxied and no loss counted. The pinned
// shard's answer decides the rest:
//
//   - a transport error or a 5xx: 503 + Retry-After ("keep polling")
//     and job_unavailable_total, because a shard restarted with its
//     journal serves the job again;
//   - a 404: the shard is up without the job (it restarted without its
//     journal), so the job is lost: 404 + jobs_lost_total, and
//     resubmitting (idempotent by content address) is the only cure;
//   - anything else passes through, a 410 Gone for a retired job
//     included.
func (r *Router) handleJobStatus(w http.ResponseWriter, req *http.Request) {
	r.metrics.Requests.Add(1)
	r.work.Add(1)
	defer r.work.Done()
	m := jobID.FindStringSubmatch(req.PathValue("id"))
	if m == nil || !service.ValidJobID(m[2]) {
		writeError(w, http.StatusNotFound, "unknown job "+req.PathValue("id")+" (cluster job IDs look like s0-j1-...)")
		return
	}
	idx, err := strconv.Atoi(m[1])
	if err != nil || idx < 0 || idx >= len(r.byIndex) {
		writeError(w, http.StatusNotFound, "unknown shard in job "+req.PathValue("id"))
		return
	}
	pinned := r.byIndex[idx]
	r.metrics.Routed.Add(1)
	res, err := r.clients[pinned].Roundtrip(req.Context(), http.MethodGet, "/jobs/"+m[2], nil)
	switch {
	case err != nil || res.Status >= http.StatusInternalServerError:
		r.metrics.JobUnavailable.Add(1)
		writeUnavailable(w, fmt.Sprintf(
			"shard %s temporarily unreachable; a journaled job recovers when its shard rejoins — keep polling", pinned))
	case res.Status == http.StatusNotFound:
		r.metrics.JobsLost.Add(1)
		writeError(w, http.StatusNotFound, fmt.Sprintf(
			"job %s is lost: shard %s is up without it — resubmit (idempotent by content address)",
			req.PathValue("id"), pinned))
	default:
		r.metrics.Served.Inc(pinned)
		passthrough(w, res, pinned)
	}
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("{\"status\":\"ok\"}\n"))
}

// handleReadyz reports routability: ready while not draining and at
// least one backend is healthy (a router with no healthy backend can
// only shed load, so a balancer should stop sending it traffic).
func (r *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch {
	case r.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("{\"status\":\"draining\"}\n"))
	case len(r.Healthy()) == 0:
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("{\"status\":\"no-healthy-backends\"}\n"))
	default:
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("{\"status\":\"ready\"}\n"))
	}
}

// engineCounter matches one un-labelled engine counter sample in a
// backend's /metrics output, and engineHelp the HELP line of an engine
// family.
var (
	engineCounter = regexp.MustCompile(`(?m)^(salsa_engine_[a-z_]+) (\d+)$`)
	engineHelp    = regexp.MustCompile(`(?m)^# HELP (salsa_engine_[a-z_]+) (.*)$`)
)

// scrapedFamily is one engine counter family of the scrape-through:
// the HELP text the first backend reporting it declared, if any, and
// its samples, one per backend.
type scrapedFamily struct {
	name, help string
	samples    strings.Builder
}

// handleMetrics renders the router's own metrics and a scrape-through
// of every backend's engine counters re-labelled with backend=<url> —
// one scrape of the router sees the whole fleet's engine activity
// without touching each backend.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	r.metrics.Requests.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	r.registry.WritePrometheus(w)

	// Scrape-through: engine counters from every live backend, each
	// family once, in the order backends first report them, with one
	// labelled sample per backend in configured order.
	var fams []*scrapedFamily
	byName := map[string]*scrapedFamily{}
	for _, b := range r.Healthy() {
		body, ok := r.scrapeBackend(req.Context(), b)
		if !ok {
			continue
		}
		text := string(body)
		help := map[string]string{}
		for _, m := range engineHelp.FindAllStringSubmatch(text, -1) {
			help[m[1]] = m[2]
		}
		for _, m := range engineCounter.FindAllStringSubmatch(text, -1) {
			name, value := m[1], m[2]
			f := byName[name]
			if f == nil {
				f = &scrapedFamily{name: name, help: help[name]}
				byName[name] = f
				fams = append(fams, f)
			}
			fmt.Fprintf(&f.samples, "%s{backend=%q} %s\n", name, b, value)
		}
	}
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s counter\n%s", f.name, f.samples.String())
	}
}

// scrapeBackend fetches one backend's /metrics with a single,
// probe-bounded exchange (no retries: a scrape is periodic anyway).
func (r *Router) scrapeBackend(ctx context.Context, backend string) ([]byte, bool) {
	sctx, cancel := clock.WithTimeout(ctx, r.clock, r.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, backend+"/metrics", nil)
	if err != nil {
		return nil, false
	}
	resp, err := r.cfg.Doer.Do(req)
	if err != nil {
		return nil, false
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, false
	}
	return body, true
}
