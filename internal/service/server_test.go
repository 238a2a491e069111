package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"salsa"
	"salsa/internal/cdfg"
	"salsa/internal/workloads"
)

// testServer couples a Server with an httptest frontend.
type testServer struct {
	s  *Server
	ts *httptest.Server
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &testServer{s: s, ts: ts}
}

// allocBody builds an AllocateRequest document for graph g.
func allocBody(t *testing.T, g *cdfg.Graph, mutate func(*AllocateRequest)) []byte {
	t.Helper()
	gj, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	ar := AllocateRequest{Graph: gj, Restarts: 2, Seed: 1}
	if mutate != nil {
		mutate(&ar)
	}
	body, err := json.Marshal(ar)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// post sends an allocation request and returns status, headers, body.
func (e *testServer) post(t *testing.T, path string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(e.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

func (e *testServer) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(e.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func decodeResult(t *testing.T, body []byte) salsa.ResultJSON {
	t.Helper()
	var rj salsa.ResultJSON
	if err := json.Unmarshal(body, &rj); err != nil {
		t.Fatalf("decoding result %q: %v", body, err)
	}
	return rj
}

// TestAllocateAndCacheHit: a complete allocation is served, cached, and
// the second identical submission is a byte-identical cache hit.
func TestAllocateAndCacheHit(t *testing.T) {
	e := newTestServer(t, Config{})
	body := allocBody(t, workloads.Figure1(), nil)

	status, hdr, first := e.post(t, "/allocate", body)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", status, first)
	}
	if got := hdr.Get("X-Salsa-Cache"); got != "miss" {
		t.Errorf("first request cache header %q, want miss", got)
	}
	rj := decodeResult(t, first)
	if rj.Partial {
		t.Error("complete allocation reported partial")
	}
	if rj.Fingerprint != workloads.Figure1().Fingerprint() {
		t.Errorf("fingerprint %q does not match the graph's", rj.Fingerprint)
	}
	if rj.Cost.Total <= 0 || rj.Cost.Mux <= 0 {
		t.Errorf("implausible cost breakdown: %+v", rj.Cost)
	}

	status, hdr, second := e.post(t, "/allocate", body)
	if status != http.StatusOK {
		t.Fatalf("second request: status %d", status)
	}
	if got := hdr.Get("X-Salsa-Cache"); got != "hit" {
		t.Errorf("second request cache header %q, want hit", got)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cache hit body differs from original:\n first %s\nsecond %s", first, second)
	}
	if hits := e.s.metrics.cacheHits.Load(); hits != 1 {
		t.Errorf("cache hits %d, want 1", hits)
	}
	if runs := e.s.metrics.engineRuns.Load(); runs != 1 {
		t.Errorf("engine runs %d, want 1", runs)
	}
}

// TestSingleflightCollapse: N identical concurrent requests perform one
// engine run and share byte-identical bodies. The leader is gated on a
// channel until every follower has joined its flight, so the collapse
// is deterministic, not timing-dependent.
func TestSingleflightCollapse(t *testing.T) {
	const followers = 7
	e := newTestServer(t, Config{MaxConcurrent: 2})
	gate := make(chan struct{})
	e.s.runStarted = func(*allocSpec) { <-gate }
	body := allocBody(t, workloads.Diffeq(), nil)

	type reply struct {
		status int
		shared string
		body   []byte
	}
	replies := make(chan reply, followers+1)
	var wg sync.WaitGroup
	for i := 0; i < followers+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, hdr, out := e.post(t, "/allocate", body)
			replies <- reply{status, hdr.Get("X-Salsa-Flight"), out}
		}()
	}
	// Release the leader only once all other requests are waiting on
	// its flight (leader counts as 1).
	spec, err := e.s.parseRequest(&AllocateRequest{Graph: mustMarshal(t, workloads.Diffeq()), Restarts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); e.s.flight.inFlight(spec.key) < followers+1; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests joined the flight", e.s.flight.inFlight(spec.key))
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(replies)

	var bodies [][]byte
	sharedCount := 0
	for r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("status %d: %s", r.status, r.body)
		}
		if r.shared == "shared" {
			sharedCount++
		}
		bodies = append(bodies, r.body)
	}
	if sharedCount != followers {
		t.Errorf("%d shared responses, want %d", sharedCount, followers)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("response %d differs from response 0", i)
		}
	}
	if runs := e.s.metrics.engineRuns.Load(); runs != 1 {
		t.Errorf("engine runs %d, want exactly 1 (singleflight)", runs)
	}
}

func mustMarshal(t *testing.T, g *cdfg.Graph) []byte {
	t.Helper()
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShortDeadlinePartial: a deadline that fires mid-search yields
// HTTP 200 with "partial": true and a Check-valid allocation.
func TestShortDeadlinePartial(t *testing.T) {
	e := newTestServer(t, Config{})
	// Capture the engine result so legality can be asserted directly on
	// the binding, not just via the server's own Check guard.
	var mu sync.Mutex
	var lastRes *salsa.Result
	e.s.execute = func(ctx context.Context, req salsa.Request) (*salsa.Design, *salsa.Result, *salsa.Stats, error) {
		d, r, st, err := salsa.Execute(ctx, req)
		mu.Lock()
		lastRes = r
		mu.Unlock()
		return d, r, st, err
	}

	// A deliberately heavy search (large synthetic graph, wide
	// portfolio) so a full run takes far longer than the ladder's
	// largest deadline; the ladder only exists because "too short to
	// find even one allocation" (408) is machine-dependent.
	g := workloads.Synthetic(120, 5)
	for _, timeoutMS := range []int64{30, 60, 120, 250, 500} {
		body := allocBody(t, g, func(ar *AllocateRequest) {
			ar.Restarts = 12
			ar.TimeoutMS = timeoutMS
		})
		status, _, out := e.post(t, "/allocate", body)
		switch status {
		case http.StatusRequestTimeout:
			continue // not even an initial allocation yet; try a longer deadline
		case http.StatusOK:
			rj := decodeResult(t, out)
			if !rj.Partial {
				t.Fatalf("timeout_ms=%d: full search finished before the deadline; the workload is too small for this test", timeoutMS)
			}
			if rj.Stop == "" {
				t.Error("partial result carries no stop reason")
			}
			mu.Lock()
			res := lastRes
			mu.Unlock()
			if res == nil {
				t.Fatal("execute hook captured no result")
			}
			if err := res.Binding.Check(); err != nil {
				t.Errorf("partial result binding fails legality check: %v", err)
			}
			if e.s.metrics.partials.Load() == 0 {
				t.Error("partial counter not incremented")
			}
			if e.s.cache.Len() != 0 {
				t.Error("partial result was cached")
			}
			return
		default:
			t.Fatalf("timeout_ms=%d: unexpected status %d: %s", timeoutMS, status, out)
		}
	}
	t.Fatal("every deadline in the ladder fired before any allocation existed")
}

// TestQueueOverflow: with one engine slot and a one-deep queue, a third
// concurrent distinct request is rejected 429 with Retry-After.
func TestQueueOverflow(t *testing.T) {
	e := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	e.s.runStarted = func(*allocSpec) { <-gate }

	distinct := func(seed int64) []byte {
		return allocBody(t, workloads.Figure1(), func(ar *AllocateRequest) { ar.Seed = seed })
	}
	done := make(chan int, 2)
	// Request A: occupies the engine slot (blocked on the gate).
	go func() {
		status, _, _ := e.post(t, "/allocate", distinct(101))
		done <- status
	}()
	waitFor(t, "request A to hold the engine slot", func() bool {
		return e.s.metrics.activeRuns.Load() == 1
	})
	// Request B: admitted, waiting for the slot.
	go func() {
		status, _, _ := e.post(t, "/allocate", distinct(102))
		done <- status
	}()
	waitFor(t, "request B to join the queue", func() bool {
		return e.s.metrics.queueDepth.Load() == 1
	})
	// Request C: queue full -> 429 immediately.
	status, hdr, body := e.post(t, "/allocate", distinct(103))
	if status != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, body %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if rejected := e.s.metrics.queueRejected.Load(); rejected != 1 {
		t.Errorf("queue rejections %d, want 1", rejected)
	}
	// Release the gate: A and B complete normally.
	release()
	for i := 0; i < 2; i++ {
		if status := <-done; status != http.StatusOK {
			t.Errorf("gated request finished with status %d", status)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrain: draining flips readiness, rejects new work with 503, lets
// in-flight requests finish, and the metrics reconcile with the
// requests served.
func TestDrain(t *testing.T) {
	e := newTestServer(t, Config{MaxConcurrent: 1})
	gate := make(chan struct{})
	e.s.runStarted = func(*allocSpec) { <-gate }

	inflight := make(chan reply1, 1)
	go func() {
		status, _, body := e.post(t, "/allocate", allocBody(t, workloads.Figure1(), nil))
		inflight <- reply1{status, body}
	}()
	waitFor(t, "in-flight request to start", func() bool {
		return e.s.metrics.activeRuns.Load() == 1
	})

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- e.s.Drain(ctx)
	}()
	waitFor(t, "drain mode", func() bool { return e.s.Draining() })

	if status, _ := e.get(t, "/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: status %d, want 503", status)
	}
	if status, _ := e.get(t, "/healthz"); status != http.StatusOK {
		t.Errorf("healthz during drain: status %d, want 200 (liveness is not readiness)", status)
	}
	status, hdr, _ := e.post(t, "/allocate", allocBody(t, workloads.Diffeq(), nil))
	if status != http.StatusServiceUnavailable {
		t.Errorf("new request during drain: status %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("drain rejection without Retry-After")
	}

	// The in-flight request must complete, then Drain must return.
	close(gate)
	r := <-inflight
	if r.status != http.StatusOK {
		t.Errorf("in-flight request finished %d during drain: %s", r.status, r.body)
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}

	// Reconciliation: every request the server counted got a response,
	// and the allocation accounting is closed (hits+misses = allocation
	// requests that passed parsing; each miss either led or shared).
	m := e.s.metrics
	_, counts := m.responses()
	var responses int64
	for _, c := range counts {
		responses += c
	}
	if got, want := m.httpRequests.Load(), responses; got != want {
		t.Errorf("requests %d != responses %d", got, want)
	}
	if got := m.cacheHits.Load() + m.cacheMisses.Load(); got != 1 {
		t.Errorf("cache lookups %d, want 1 (drain-rejected request must not count)", got)
	}
	if m.queueDepth.Load() != 0 || m.activeRuns.Load() != 0 {
		t.Errorf("gauges not drained: depth %d active %d", m.queueDepth.Load(), m.activeRuns.Load())
	}
}

type reply1 struct {
	status int
	body   []byte
}

// TestAsyncJobs: POST /jobs answers 202, /jobs/{id} exposes engine
// progress and the terminal result equals what a synchronous /allocate
// serves from the cache.
func TestAsyncJobs(t *testing.T) {
	e := newTestServer(t, Config{})
	body := allocBody(t, workloads.FIR8(), func(ar *AllocateRequest) { ar.Restarts = 3 })

	status, _, out := e.post(t, "/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, out)
	}
	var sub struct {
		ID        string `json:"id"`
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(out, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit response %q: %v", out, err)
	}

	var st JobStatus
	waitFor(t, "job to finish", func() bool {
		status, body := e.get(t, sub.StatusURL)
		if status != http.StatusOK {
			t.Fatalf("status endpoint: %d", status)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("decoding job status %q: %v", body, err)
		}
		return st.State == jobDone || st.State == jobFailed
	})
	if st.State != jobDone {
		t.Fatalf("job failed: %+v", st)
	}
	if st.HTTPStatus != http.StatusOK {
		t.Errorf("job HTTP status %d", st.HTTPStatus)
	}
	// This job led its own engine run, so engine telemetry must have
	// flowed into its progress.
	if st.Progress.PortfolioJobsStarted != 3 || st.Progress.PortfolioJobsFinished != 3 {
		t.Errorf("portfolio progress %+v, want 3 started / 3 finished", st.Progress)
	}
	if st.Progress.Improvements == 0 || st.Progress.BestCost == 0 {
		t.Errorf("no improvement telemetry recorded: %+v", st.Progress)
	}

	// The async result populated the cache: a synchronous request for
	// the same work is a byte-identical hit.
	aStatus, hdr, aBody := e.post(t, "/allocate", body)
	if aStatus != http.StatusOK || hdr.Get("X-Salsa-Cache") != "hit" {
		t.Fatalf("sync follow-up: status %d cache %q", aStatus, hdr.Get("X-Salsa-Cache"))
	}
	// Embedding the body as a RawMessage inside JobStatus strips the
	// trailing newline (json.Marshal compacts raw messages); the JSON
	// payload itself must be identical.
	if !bytes.Equal(bytes.TrimSpace(st.Result), bytes.TrimSpace(aBody)) {
		t.Errorf("async result differs from sync cache hit:\nasync %s\n sync %s", st.Result, aBody)
	}

	if status, _ := e.get(t, "/jobs/nonexistent"); status != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", status)
	}
}

// TestRequestValidation covers the 4xx surface.
func TestRequestValidation(t *testing.T) {
	e := newTestServer(t, Config{MaxBodyBytes: 2048})
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"malformed JSON", []byte("{nope"), http.StatusBadRequest},
		{"missing graph", []byte(`{"seed": 3}`), http.StatusBadRequest},
		{"invalid graph", []byte(`{"graph": {"name": "x", "nodes": [{"name": "a", "op": "add", "args": ["missing", "missing"]}]}}`), http.StatusBadRequest},
		{"unknown mode", allocBody(t, workloads.Figure1(), func(ar *AllocateRequest) { ar.Mode = "quantum" }), http.StatusBadRequest},
		{"negative timeout", allocBody(t, workloads.Figure1(), func(ar *AllocateRequest) { ar.TimeoutMS = -1 }), http.StatusBadRequest},
		{"oversized body", allocBody(t, workloads.EWF(), nil), http.StatusRequestEntityTooLarge},
		{"infeasible schedule", allocBody(t, workloads.Figure1(), func(ar *AllocateRequest) { ar.Steps = 1 }), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := e.post(t, "/allocate", tc.body)
			if status != tc.want {
				t.Errorf("status %d, want %d (body %s)", status, tc.want, body)
			}
			var ed struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &ed); err != nil || ed.Error == "" {
				t.Errorf("error body %q not in the uniform schema", body)
			}
		})
	}
}

// TestRequestCaps: a request over a size cap is answered 400 naming the
// field and the cap, before any search runs; a request at the caps
// passes validation.
func TestRequestCaps(t *testing.T) {
	e := newTestServer(t, Config{})
	cases := []struct {
		field  string
		mutate func(*AllocateRequest)
		cap    int
	}{
		{"restarts", func(ar *AllocateRequest) { ar.Restarts = MaxRestarts + 1 }, MaxRestarts},
		{"extra_registers", func(ar *AllocateRequest) { ar.ExtraRegisters = MaxExtraRegisters + 1 }, MaxExtraRegisters},
		{"steps", func(ar *AllocateRequest) { ar.Steps = MaxSteps + 1 }, MaxSteps},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			for _, path := range []string{"/allocate", "/jobs"} {
				status, _, body := e.post(t, path, allocBody(t, workloads.Figure1(), tc.mutate))
				if status != http.StatusBadRequest {
					t.Fatalf("%s: status %d, want 400 (body %s)", path, status, body)
				}
				if want := fmt.Sprintf("exceeds the cap of %d", tc.cap); !strings.Contains(string(body), tc.field) || !strings.Contains(string(body), want) {
					t.Errorf("%s: error %s does not name the field and its cap", path, body)
				}
			}
			var ar AllocateRequest
			if err := json.Unmarshal(allocBody(t, workloads.Figure1(), tc.mutate), &ar); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ar.ContentKey(); err == nil {
				t.Error("ContentKey accepted an over-cap request, so a router would forward it")
			}
		})
	}
	if m := e.s.metrics.snapshot(0); m["engine_invocations_total"] != 0 {
		t.Errorf("over-cap requests reached the engine: %v", m["engine_invocations_total"])
	}
	atCap := AllocateRequest{Restarts: MaxRestarts, ExtraRegisters: MaxExtraRegisters, Steps: MaxSteps}
	atCap.Graph = mustMarshal(t, workloads.Figure1())
	if _, err := atCap.normalize(); err != nil {
		t.Errorf("request at the caps rejected: %v", err)
	}
}

// TestMetricsEndpoint checks the Prometheus rendering: well-formed
// series for the service counters, the latency histogram, and the
// engine's process-wide counters.
func TestMetricsEndpoint(t *testing.T) {
	e := newTestServer(t, Config{})
	e.post(t, "/allocate", allocBody(t, workloads.Figure1(), nil))
	e.post(t, "/allocate", allocBody(t, workloads.Figure1(), nil))

	status, body := e.get(t, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	text := string(body)
	for _, series := range []string{
		"salsa_http_requests_total",
		`salsa_http_responses_total{code="200"} 2`,
		"salsa_cache_hits_total 1",
		"salsa_cache_misses_total 1",
		"salsa_engine_invocations_total 1",
		"salsa_singleflight_leader_total 1",
		"salsa_queue_depth 0",
		"salsa_request_duration_ms_bucket{le=\"+Inf\"}",
		"salsa_request_duration_ms_count",
		"salsa_engine_runs_total",
		"salsa_engine_trials_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics output missing %q", series)
		}
	}
	if strings.Count(text, "# TYPE salsa_request_duration_ms histogram") != 1 {
		t.Error("latency histogram not rendered exactly once")
	}

	// expvar is published too.
	status, body = e.get(t, "/debug/vars")
	if status != http.StatusOK {
		t.Fatalf("expvar: status %d", status)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("expvar output not JSON: %v", err)
	}
	if _, ok := vars["salsa_service"]; !ok {
		t.Error("expvar missing salsa_service")
	}
	if _, ok := vars["salsa_engine_runs_total"]; !ok {
		t.Error("expvar missing salsa_engine_runs_total")
	}
}

// TestCacheLRU exercises the eviction order directly.
func TestCacheLRU(t *testing.T) {
	c := NewResultCache(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // a is now most recently used
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Error("a evicted out of LRU order")
	}
	if v, ok := c.Get("c"); !ok || string(v) != "C" {
		t.Error("c missing")
	}
	if c.Len() != 2 {
		t.Errorf("len %d, want 2", c.Len())
	}
}

// TestNormalizedCacheKey: requests that differ only in fields that do
// not affect the canonical result (timeout, explicit defaults) share a
// cache entry; requests that differ semantically do not.
func TestNormalizedCacheKey(t *testing.T) {
	e := newTestServer(t, Config{})
	g := workloads.Figure1()

	// Explicit defaults vs implicit defaults vs a different timeout:
	// one engine run, two hits.
	bodies := [][]byte{
		allocBody(t, g, func(ar *AllocateRequest) { ar.Seed = 0; ar.Restarts = 0 }), // implicit defaults
		allocBody(t, g, func(ar *AllocateRequest) { ar.Seed = 1; ar.Restarts = 3 }), // explicit defaults
		allocBody(t, g, func(ar *AllocateRequest) { ar.Seed = 1; ar.Restarts = 3; ar.TimeoutMS = 60000 }),
	}
	var first []byte
	for i, b := range bodies {
		status, _, out := e.post(t, "/allocate", b)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
		if i == 0 {
			first = out
		} else if !bytes.Equal(first, out) {
			t.Errorf("request %d body differs despite identical normalized key", i)
		}
	}
	if runs := e.s.metrics.engineRuns.Load(); runs != 1 {
		t.Errorf("engine runs %d, want 1", runs)
	}
	// A different seed is a different address.
	status, hdr, _ := e.post(t, "/allocate", allocBody(t, g, func(ar *AllocateRequest) { ar.Seed = 2; ar.Restarts = 3 }))
	if status != http.StatusOK || hdr.Get("X-Salsa-Cache") != "miss" {
		t.Errorf("different seed: status %d cache %q, want miss", status, hdr.Get("X-Salsa-Cache"))
	}
}

// TestResultMatchesDirectExecution: the served document equals the
// schema built directly over the library, so service consumers and CLI
// consumers see identical bytes for identical requests.
func TestResultMatchesDirectExecution(t *testing.T) {
	e := newTestServer(t, Config{})
	g := workloads.Diffeq()
	status, _, got := e.post(t, "/allocate", allocBody(t, g, func(ar *AllocateRequest) { ar.Seed = 4; ar.Restarts = 2 }))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}

	req := salsa.Request{Graph: workloads.Diffeq(), Seed: 4, Restarts: 2}.Normalize()
	des, res, stats, err := salsa.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	rj := salsa.BuildResultJSON(req.Graph, des.Steps(), req.Mode, req.Seed, req.Restarts, res, stats)
	want, err := json.Marshal(rj)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("service body differs from direct execution:\n got %s\nwant %s", got, want)
	}
}

// TestFlightGroup exercises the dedup primitive directly: concurrent
// callers with one key share one fn call; sequential callers each run.
func TestFlightGroup(t *testing.T) {
	g := newFlightGroup()
	var calls int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*outcome, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, _, _ := g.do(context.Background(), "k", func() *outcome {
				calls++
				<-gate
				return &outcome{status: int(calls)}
			})
			results[i] = out
		}(i)
	}
	waitFor(t, "all callers to join", func() bool { return g.inFlight("k") == len(results) })
	close(gate)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	for i, r := range results {
		if r != results[0] {
			t.Errorf("caller %d got a different outcome pointer", i)
		}
	}
	// After completion the key is forgotten: a new call runs fn again.
	out, shared, _ := g.do(context.Background(), "k", func() *outcome { calls++; return &outcome{} })
	if shared || calls != 2 {
		t.Errorf("post-completion call: shared=%t calls=%d, want fresh run", shared, calls)
	}
	_ = out
}

func TestHealthEndpoints(t *testing.T) {
	e := newTestServer(t, Config{})
	if status, _ := e.get(t, "/healthz"); status != http.StatusOK {
		t.Errorf("healthz %d", status)
	}
	if status, _ := e.get(t, "/readyz"); status != http.StatusOK {
		t.Errorf("readyz %d", status)
	}
	if status, _, _ := e.post(t, "/allocate", []byte(fmt.Sprintf(`{"graph": %s}`, mustMarshal(t, workloads.Figure1())))); status != http.StatusOK {
		t.Errorf("minimal request rejected: %d", status)
	}
}
