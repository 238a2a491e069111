package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"salsa/internal/client"
	"salsa/internal/clock"
	"salsa/internal/service"
)

// Config tunes one Router.
type Config struct {
	// Backends are the salsad base URLs the router shards over, e.g.
	// "http://127.0.0.1:18081". Required, at least one; trailing
	// slashes are trimmed; duplicates are an error (they would distort
	// the ring's key distribution silently).
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
	// negative disables.
	CacheEntries int
	// Replicas is the ring's virtual-node count per backend; 0 selects
	// DefaultReplicas.
	Replicas int
	// MaxBodyBytes bounds proxied request bodies; 0 selects 4 MiB.
	MaxBodyBytes int64
	// ProxyAttempts is the per-backend retry budget of one proxied
	// exchange before failing over to the next ring member; 0 selects 2.
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
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.ProxyAttempts <= 0 {
		c.ProxyAttempts = 2
	}
	if c.ProxyBackoff <= 0 {
		c.ProxyBackoff = 50 * time.Millisecond
	}
	return c
}

// Router proxies the salsad API over a consistent-hash ring of
// backends. Construct with New, call Start to begin health probing,
// mount Handler on an http.Server, and call Drain on shutdown. The
// router holds no allocation state of its own beyond a response cache,
// so any number of router instances can front the same fleet.
type Router struct {
	cfg     Config
	clock   clock.Clock
	metrics *routerMetrics
	cache   *service.ResultCache
	// full is the ring over every configured backend, healthy or not —
	// the reference a request's "natural" owner is computed against so
	// re-homing is observable. Immutable after construction.
	full *Ring
	// clients maps each backend to its retrying proxy client.
	// Immutable after construction.
	clients map[string]*client.Client
	// index maps each backend to its stable position in cfg.Backends —
	// the shard number async job IDs are pinned with. Immutable after
	// construction (job pins must survive membership churn, so the pin
	// is the configured position, never the ring position).
	index   map[string]int
	byIndex []string

	mu      sync.Mutex
	healthy map[string]bool // guarded by mu
	fails   map[string]int  // guarded by mu; consecutive probe failures
	ring    *Ring           // guarded by mu; ring over the healthy subset

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
		metrics: newRouterMetrics(),
		cache:   service.NewResultCache(cfg.CacheEntries),
		full:    NewRing(backends, cfg.Replicas),
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
	r.ring = r.full
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

// setHealth folds one probe outcome into the membership view,
// rebuilding the healthy ring on any transition. Rebuilding from the
// member set (never incrementally) is what keeps the key→shard map a
// pure function of membership, independent of the order transitions
// happened in.
func (r *Router) setHealth(backend string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	changed := false
	if ok {
		r.fails[backend] = 0
		if !r.healthy[backend] {
			r.healthy[backend] = true
			changed = true
		}
	} else {
		r.fails[backend]++
		if r.healthy[backend] && r.fails[backend] >= r.cfg.FailAfter {
			r.healthy[backend] = false
			changed = true
		}
	}
	if changed {
		live := make([]string, 0, len(r.byIndex))
		for _, b := range r.byIndex {
			if r.healthy[b] {
				live = append(live, b)
			}
		}
		r.ring = NewRing(live, r.cfg.Replicas)
	}
}

// Owner reports which configured backend owns key on the full ring,
// health ignored — for harnesses that need to aim chaos at the shard a
// particular workload lives on.
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

// MetricsSnapshot returns the router counters as a flat map for tests
// and the simulation harness.
func (r *Router) MetricsSnapshot() map[string]int64 {
	m := r.metrics.snapshot()
	m["cache_entries"] = int64(r.cache.Len())
	m["healthy_backends"] = int64(len(r.Healthy()))
	return m
}

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

// errNoBackend is proxy's answer when the healthy ring is empty.
var errNoBackend = errors.New("no healthy backend")

// sequence snapshots the key's failover order on the healthy ring and
// reports whether its first choice differs from the full-membership
// owner (the key has been re-homed).
func (r *Router) sequence(ringKey string) (seq []string, rehomed bool) {
	r.mu.Lock()
	ring := r.ring
	r.mu.Unlock()
	seq = ring.Sequence(ringKey)
	fullOwner, _ := r.full.Owner(ringKey)
	return seq, len(seq) > 0 && seq[0] != fullOwner
}

// proxy performs one exchange against the key's shard, failing over
// along the ring on transport errors and 5xx answers. It returns the
// first conclusive response plus the backend that served it.
func (r *Router) proxy(ctx context.Context, method, path string, body []byte, ringKey string) (*client.HTTPResult, string, error) {
	seq, rehomed := r.sequence(ringKey)
	if len(seq) == 0 {
		r.metrics.noBackend.Add(1)
		return nil, "", errNoBackend
	}
	if rehomed {
		r.metrics.rehomed.Add(1)
	}
	var lastErr error
	for i, b := range seq {
		if i > 0 {
			r.metrics.failovers.Add(1)
		}
		r.metrics.routed.Add(1)
		res, err := r.clients[b].Roundtrip(ctx, method, path, body)
		if err != nil {
			lastErr = err
			continue
		}
		if res.Status >= 500 {
			// The backend answered but is in trouble (or an intermediary
			// is); the next ring member computes the identical result.
			lastErr = &client.HTTPError{Status: res.Status, Body: res.Body}
			continue
		}
		r.metrics.served(b)
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
	body, err := json.Marshal(map[string]string{"error": msg})
	if err != nil {
		body = []byte(`{"error":"internal error"}`)
	}
	_, _ = w.Write(append(body, '\n'))
}

// writeUnavailable is the shared 503 path: drain, empty ring, or an
// exhausted failover sequence. Always carries Retry-After so clients
// back off instead of hammering.
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

// readBody reads a bounded request body, answering the error response
// itself on failure.
func (r *Router) readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return nil, false
		}
		writeError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return nil, false
	}
	return body, true
}

// contentKeyOf decodes just enough of the wire request to compute its
// content address, answering 400 itself on malformed requests (the
// router validates exactly as the backend would, so a request it
// forwards is never bounced as malformed by the shard).
func contentKeyOf(w http.ResponseWriter, body []byte) (fingerprint, key string, ok bool) {
	var ar service.AllocateRequest
	if err := json.Unmarshal(body, &ar); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return "", "", false
	}
	fp, key, err := ar.ContentKey()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return "", "", false
	}
	return fp, key, true
}

// handleAllocate proxies one synchronous allocation to the
// fingerprint's shard, serving hot fingerprints from the router cache
// without crossing the network at all.
func (r *Router) handleAllocate(w http.ResponseWriter, req *http.Request) {
	r.metrics.requests.Add(1)
	if r.rejectDraining(w) {
		return
	}
	r.work.Add(1)
	defer r.work.Done()
	body, ok := r.readBody(w, req)
	if !ok {
		return
	}
	fp, key, ok := contentKeyOf(w, body)
	if !ok {
		return
	}
	if cached, hit := r.cache.Get(key); hit {
		r.metrics.cacheHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Salsa-Cache", "hit")
		w.Header().Set("X-Salsa-Shard", "router")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(cached)
		return
	}
	r.metrics.cacheMiss.Add(1)
	res, backend, err := r.proxy(req.Context(), http.MethodPost, "/allocate", body, fp)
	if err != nil {
		writeUnavailable(w, "cluster: "+err.Error())
		return
	}
	passthrough(w, res, backend)
	if res.Status == http.StatusOK && !isPartial(res.Body) {
		r.cache.Put(key, res.Body)
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
	r.metrics.requests.Add(1)
	if r.rejectDraining(w) {
		return
	}
	r.work.Add(1)
	defer r.work.Done()
	body, ok := r.readBody(w, req)
	if !ok {
		return
	}
	fp, _, ok := contentKeyOf(w, body)
	if !ok {
		return
	}
	res, backend, err := r.proxy(req.Context(), http.MethodPost, "/jobs", body, fp)
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

// handleJobStatus proxies a poll to the job's pinned shard. An ID whose
// backend part is not one a service issues (service.ValidJobID) is an
// unknown job: 404, with nothing proxied and no loss counted. The pinned
// shard is authoritative while it answers; when it is unreachable,
// sick, or has forgotten the job (a restart without its journal), the
// poll retries the ring Sequence — a shard restarted with its data
// dir, or a survivor holding a replica of it, serves the journaled job
// byte-identically. Another member's answer is trusted only for a
// content-keyed job ID (service.ContentKeyedJobID), which proves its
// job is the same request; for an older-form ID it counts as a 404.
// The terminal answers are deliberately split:
//
//   - 503 + Retry-After ("keep polling") while any member that might
//     hold the journal is unreachable — a restart may yet recover the
//     job, so declaring it lost would be premature;
//   - 404 + jobs_lost_total only when every configured member is up
//     and none knows the job: no replica of the data dir survives, and
//     resubmitting (idempotent by content address) is the only cure.
func (r *Router) handleJobStatus(w http.ResponseWriter, req *http.Request) {
	r.metrics.requests.Add(1)
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
	r.metrics.routed.Add(1)
	res, rerr := r.clients[pinned].Roundtrip(req.Context(), http.MethodGet, "/jobs/"+m[2], nil)
	if rerr == nil && res.Status < http.StatusInternalServerError && res.Status != http.StatusNotFound {
		r.metrics.served(pinned)
		passthrough(w, res, pinned)
		return
	}
	// Proving genuine loss requires every configured member — healthy
	// or not — to be reachable and answer 404; an unprobed or
	// unreachable member might still rejoin with the journal. Walk the
	// healthy ring in the key's Sequence order first (the preference
	// order for serving), then any demoted members, so the sweep covers
	// the whole fleet.
	allAnswered := rerr == nil && res.Status == http.StatusNotFound
	seq, _ := r.sequence(m[2])
	walked := map[string]bool{pinned: true}
	candidates := make([]string, 0, len(r.byIndex))
	for _, b := range seq {
		if !walked[b] {
			walked[b] = true
			candidates = append(candidates, b)
		}
	}
	for _, b := range r.byIndex {
		if !walked[b] {
			walked[b] = true
			candidates = append(candidates, b)
		}
	}
	for _, b := range candidates {
		r.metrics.routed.Add(1)
		sres, serr := r.clients[b].Roundtrip(req.Context(), http.MethodGet, "/jobs/"+m[2], nil)
		if serr != nil || sres.Status >= http.StatusInternalServerError {
			allAnswered = false
			continue
		}
		if sres.Status != http.StatusNotFound {
			if !service.ContentKeyedJobID(m[2]) {
				// An older-form ID is unique only within one process:
				// this member's job may be another request's, so its
				// answer proves nothing either way.
				continue
			}
			// A survivor adopted the journal (or the owner's data dir
			// moved), or holds the same request under the same ID:
			// content-keyed IDs make its result byte-identical.
			r.metrics.failovers.Add(1)
			r.metrics.served(b)
			passthrough(w, sres, b)
			return
		}
	}
	if allAnswered {
		r.metrics.jobsLost.Add(1)
		writeError(w, http.StatusNotFound, fmt.Sprintf(
			"job %s is lost: shard %s is up without it and no other shard holds it — resubmit (idempotent by content address)",
			req.PathValue("id"), pinned))
		return
	}
	r.metrics.jobUnavailable.Add(1)
	writeUnavailable(w, fmt.Sprintf(
		"shard %s temporarily unreachable; a journaled job recovers when its shard rejoins — keep polling", pinned))
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("{\"status\":\"ok\"}\n"))
}

// handleReadyz reports routability: ready while not draining and at
// least one backend is healthy (a router with an empty ring can only
// shed load, so a balancer should stop sending it traffic).
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
// backend's /metrics output.
var engineCounter = regexp.MustCompile(`(?m)^(salsa_engine_[a-z_]+) (\d+)$`)

// handleMetrics renders the router's own counters, per-backend health
// gauges, and a scrape-through of every backend's engine counters
// re-labelled with backend=<url> — one scrape of the router sees the
// whole fleet's engine activity without touching each backend.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	r.metrics.requests.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	r.metrics.writePrometheus(w)
	fmt.Fprintf(w, "# HELP salsa_router_backend_healthy Backend health by probe (1 healthy, 0 not).\n# TYPE salsa_router_backend_healthy gauge\n")
	healthy := make(map[string]bool)
	for _, b := range r.Healthy() {
		healthy[b] = true
	}
	for _, b := range r.byIndex {
		v := 0
		if healthy[b] {
			v = 1
		}
		fmt.Fprintf(w, "salsa_router_backend_healthy{backend=%q} %d\n", b, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("salsa_router_cache_entries", "Router response-cache resident entries.", int64(r.cache.Len()))

	// Scrape-through: engine counters from every live backend, once per
	// family, one labelled sample per backend, in configured order.
	emitted := map[string]bool{}
	for _, b := range r.byIndex {
		if !healthy[b] {
			continue
		}
		body, ok := r.scrapeBackend(req.Context(), b)
		if !ok {
			continue
		}
		for _, m := range engineCounter.FindAllStringSubmatch(string(body), -1) {
			name, value := m[1], m[2]
			if !emitted[name] {
				emitted[name] = true
				fmt.Fprintf(w, "# HELP %s Engine counter scraped through from the backend.\n# TYPE %s counter\n", name, name)
			}
			fmt.Fprintf(w, "%s{backend=%q} %s\n", name, b, value)
		}
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
