package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"salsa/internal/cdfg"
	"salsa/internal/clock"
	"salsa/internal/service"
	"salsa/internal/workloads"
)

// testCluster is an in-process fleet: n real service backends behind
// one router, all on httptest servers.
type testCluster struct {
	backends []*httptest.Server
	router   *Router
	front    *httptest.Server
}

func newTestCluster(t *testing.T, n int, cfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		svc := service.New(service.Config{MaxConcurrent: 2, MaxQueue: 64})
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(ts.Close)
		tc.backends = append(tc.backends, ts)
		cfg.Backends = append(cfg.Backends, ts.URL)
	}
	if cfg.ProxyBackoff == 0 {
		cfg.ProxyBackoff = time.Millisecond
	}
	router, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tc.router = router
	tc.front = httptest.NewServer(router.Handler())
	t.Cleanup(tc.front.Close)
	return tc
}

// allocBody builds one wire request for a workload graph.
func allocBody(t *testing.T, g *cdfg.Graph, seed int64) []byte {
	t.Helper()
	doc, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"graph": json.RawMessage(doc), "seed": seed, "restarts": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// fingerprintOf computes the routing key the router will use for body.
func fingerprintOf(t *testing.T, body []byte) string {
	t.Helper()
	var ar service.AllocateRequest
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	fp, _, err := ar.ContentKey()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func postAllocate(t *testing.T, base string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /allocate: %v", err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestRouterSyncRouting: a request routes to exactly one shard, the
// response is byte-identical to asking that backend directly, and a
// repeat is served from the router cache without touching the network.
func TestRouterSyncRouting(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	body := allocBody(t, workloads.Figure1(), 1)

	resp1, out1 := postAllocate(t, tc.front.URL, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp1.StatusCode, out1)
	}
	shard := resp1.Header.Get("X-Salsa-Shard")
	owner, _ := tc.router.full.Owner(fingerprintOf(t, body))
	if shard != owner {
		t.Errorf("X-Salsa-Shard = %q, want ring owner %q", shard, owner)
	}

	// Direct answer from the owning backend must be the same bytes.
	respD, outD := postAllocate(t, shard, body)
	if respD.StatusCode != http.StatusOK || !bytes.Equal(out1, outD) {
		t.Errorf("router body diverges from direct backend answer")
	}

	// The repeat hits the router cache: same bytes, provenance "router".
	resp2, out2 := postAllocate(t, tc.front.URL, body)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(out1, out2) {
		t.Fatalf("cached repeat diverges (status %d)", resp2.StatusCode)
	}
	if c, s := resp2.Header.Get("X-Salsa-Cache"), resp2.Header.Get("X-Salsa-Shard"); c != "hit" || s != "router" {
		t.Errorf("repeat: X-Salsa-Cache=%q X-Salsa-Shard=%q, want hit/router", c, s)
	}

	// A different seed shares the fingerprint — same shard, its own
	// cache entry (the content key includes the seed).
	other := allocBody(t, workloads.Figure1(), 7)
	resp3, _ := postAllocate(t, tc.front.URL, other)
	if got := resp3.Header.Get("X-Salsa-Shard"); got != shard {
		t.Errorf("same graph, different seed routed to %q, want %q (fingerprint is the ring key)", got, shard)
	}

	m := tc.router.MetricsSnapshot()
	if m["cache_hits_total"] != 1 || m["cache_misses_total"] != 2 {
		t.Errorf("cache counters hits=%d misses=%d, want 1/2", m["cache_hits_total"], m["cache_misses_total"])
	}
}

// TestRouterFailover: killing the shard that owns a key must cost
// latency, not an answer — the exchange moves to the next ring member.
func TestRouterFailover(t *testing.T) {
	tc := newTestCluster(t, 3, Config{ProxyAttempts: 1})
	body := allocBody(t, workloads.Diffeq(), 1)
	owner, _ := tc.router.full.Owner(fingerprintOf(t, body))
	for i, ts := range tc.backends {
		if ts.URL == owner {
			tc.backends[i].Close()
		}
	}

	resp, out := postAllocate(t, tc.front.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request with dead owner: status %d: %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Salsa-Shard"); got == owner {
		t.Errorf("served by the dead owner %q?", got)
	}
	m := tc.router.MetricsSnapshot()
	if m["failover_total"] == 0 {
		t.Errorf("failover_total = 0 after serving past a dead owner")
	}
}

// TestRouterAllBackendsDead: every backend refusing connections must
// yield a prompt 503 with Retry-After — bounded by the per-backend
// retry budget, never a hang.
func TestRouterAllBackendsDead(t *testing.T) {
	tc := newTestCluster(t, 2, Config{ProxyAttempts: 1})
	for _, ts := range tc.backends {
		ts.Close()
	}
	body := allocBody(t, workloads.Figure1(), 1)
	start := time.Now()
	resp, out := postAllocate(t, tc.front.URL, body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("dead fleet answered in %v — failover must be bounded", elapsed)
	}
}

// TestRouterEmptyRing: with every backend probed down, the router
// rejects immediately (no proxy attempts at all) and /readyz reports
// not-ready.
func TestRouterEmptyRing(t *testing.T) {
	tc := newTestCluster(t, 2, Config{FailAfter: 1})
	for _, ts := range tc.backends {
		tc.router.setHealth(ts.URL, false)
	}
	if n := len(tc.router.Healthy()); n != 0 {
		t.Fatalf("Healthy() has %d members after demoting all", n)
	}
	resp, out := postAllocate(t, tc.front.URL, allocBody(t, workloads.Figure1(), 1))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("empty ring: status %d (%s), want 503 + Retry-After", resp.StatusCode, out)
	}
	if m := tc.router.MetricsSnapshot(); m["no_backend_total"] != 1 {
		t.Errorf("no_backend_total = %d, want 1", m["no_backend_total"])
	}
	rz, err := http.Get(tc.front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rz.Body)
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz with empty ring: status %d, want 503", rz.StatusCode)
	}
}

// TestRouterProbeRehoming drives membership through the real probe
// loop on a virtual clock: a backend dies, probes demote it, and a key
// it owned re-homes deterministically onto a survivor.
func TestRouterProbeRehoming(t *testing.T) {
	clk := clock.NewVirtual()
	tc := newTestCluster(t, 3, Config{
		Clock:         clk,
		ProbeInterval: 100 * time.Millisecond,
		ProbeTimeout:  time.Second,
		FailAfter:     2,
		ProxyAttempts: 1,
	})
	stop := clk.AutoAdvance(500 * time.Microsecond)
	defer stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tc.router.Start(ctx)

	body := allocBody(t, workloads.FIR8(), 1)
	owner, _ := tc.router.full.Owner(fingerprintOf(t, body))
	for i, ts := range tc.backends {
		if ts.URL == owner {
			tc.backends[i].Close()
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(tc.router.Healthy()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("probes never demoted the dead backend; healthy=%v", tc.router.Healthy())
		}
		time.Sleep(time.Millisecond)
	}

	resp, out := postAllocate(t, tc.front.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after demotion: status %d: %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Salsa-Shard"); got == owner {
		t.Errorf("served by demoted backend %q", got)
	}
	m := tc.router.MetricsSnapshot()
	if m["rehomed_total"] == 0 {
		t.Error("rehomed_total = 0 after demotion moved the owner")
	}
	// The healthy-ring routing decision must agree with a fresh ring
	// built from the same member set — determinism across instances.
	want, _ := NewRing(tc.router.Healthy(), 0).Owner(fingerprintOf(t, body))
	if got := resp.Header.Get("X-Salsa-Shard"); got != want {
		t.Errorf("re-homed to %q, want %q (pure function of the member set)", got, want)
	}
}

// TestRouterAsyncPinning: jobs created through the router carry a
// shard prefix, poll back to the owning backend, and finish with the
// same result the synchronous path serves.
func TestRouterAsyncPinning(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	body := allocBody(t, workloads.Figure1(), 3)

	resp, err := http.Post(tc.front.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, sub)
	}
	var job struct {
		ID        string `json:"id"`
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(sub, &job); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`^s\d+-j\d+`).MatchString(job.ID) {
		t.Fatalf("job ID %q lacks the shard pin prefix", job.ID)
	}
	if job.StatusURL != "/jobs/"+job.ID {
		t.Fatalf("status_url = %q, want /jobs/%s", job.StatusURL, job.ID)
	}

	var st service.JobStatus
	for deadline := time.Now().Add(30 * time.Second); ; {
		sr, err := http.Get(tc.front.URL + job.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		pb, _ := io.ReadAll(sr.Body)
		sr.Body.Close()
		if sr.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d: %s", sr.StatusCode, pb)
		}
		if err := json.Unmarshal(pb, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" || st.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q after 30s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != "done" {
		t.Fatalf("job finished %q: %s", st.State, st.Error)
	}

	_, sync := postAllocate(t, tc.front.URL, body)
	var a, b bytes.Buffer
	if err := json.Compact(&a, st.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, sync); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("async result diverges from the sync path")
	}
}

// TestRouterJobStatusErrors walks the poll decision tree: malformed
// IDs — an unknown shard, or a backend part that is not a job ID a
// service issues, such as an encoded path to another backend endpoint —
// are immediate 404s, proxied nowhere and not counted as lost; a job no
// reachable shard knows is genuine loss (404 + jobs_lost_total —
// resubmission is the only cure); a job pinned to an unreachable shard
// is NOT declared lost — the shard's journal may recover it on rejoin,
// so the poll answers 503 + Retry-After and counts
// job_unavailable_total instead.
func TestRouterJobStatusErrors(t *testing.T) {
	tc := newTestCluster(t, 2, Config{ProxyAttempts: 1})
	for _, id := range []string{
		"nonsense", "s99-j1-abc", "sX-j1",
		"s0-..%2Fmetrics", "s0-..%2F..%2Fdebug%2Fvars", "s0-j1-ab%2F..%2F..%2Fmetrics",
		"s0-not-a-job", "s0-j1-", "s0-j1-DEADBEEF", "s0-j-1-abc", "s0-j+1-abc",
	} {
		resp, err := http.Get(tc.front.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /jobs/%s: status %d, want 404", id, resp.StatusCode)
		}
	}
	if m := tc.router.MetricsSnapshot(); m["routed_total"] != 0 || m["jobs_lost_total"] != 0 {
		t.Errorf("malformed IDs: routed=%d jobs_lost=%d, want 0/0 (nothing proxied)", m["routed_total"], m["jobs_lost_total"])
	}

	// Genuine loss: the whole fleet is up and nobody knows the job.
	resp, err := http.Get(tc.front.URL + "/jobs/s1-j1-deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job, live fleet: status %d, want 404 (genuine loss)", resp.StatusCode)
	}
	m := tc.router.MetricsSnapshot()
	if m["jobs_lost_total"] != 1 || m["job_unavailable_total"] != 0 {
		t.Errorf("live fleet: jobs_lost=%d unavailable=%d, want 1/0", m["jobs_lost_total"], m["job_unavailable_total"])
	}

	// Pinned shard down: loss is unprovable, the poll must stay
	// retryable.
	tc.backends[1].Close()
	resp, err = http.Get(tc.front.URL + "/jobs/s1-j1-deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("dead pinned shard: status %d, want 503 + Retry-After", resp.StatusCode)
	}
	m = tc.router.MetricsSnapshot()
	if m["jobs_lost_total"] != 1 || m["job_unavailable_total"] != 1 {
		t.Errorf("dead shard: jobs_lost=%d unavailable=%d, want 1/1", m["jobs_lost_total"], m["job_unavailable_total"])
	}
}

// keyedJobID is a content-keyed job ID of the form the service issues.
var keyedJobID = "j1-" + strings.Repeat("de", 32)

// TestRouterJobPollFailsOver: when the pinned shard has forgotten a
// job but another member holds it (its data dir — and with it the
// journal — moved), the poll walks the ring and serves the survivor's
// answer instead of declaring loss.
func TestRouterJobPollFailsOver(t *testing.T) {
	// Backend 0 is a real (empty) service: it answers 404 for the job.
	// Backend 1 stands in for a shard that adopted the journal.
	svc := service.New(service.Config{})
	ts0 := httptest.NewServer(svc.Handler())
	t.Cleanup(ts0.Close)
	adopted := []byte(`{"id":"` + keyedJobID + `","state":"done","http_status":200,"result":{"ok":true},"recovered":true,"elapsed_ms":42}` + "\n")
	ts1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/jobs/") {
			w.Header().Set("Content-Type", "application/json")
			w.Write(adopted)
			return
		}
		w.Write([]byte("{}\n"))
	}))
	t.Cleanup(ts1.Close)
	router, err := New(Config{Backends: []string{ts0.URL, ts1.URL}, ProxyAttempts: 1, ProxyBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(router.Handler())
	t.Cleanup(front.Close)

	resp, err := http.Get(front.URL + "/jobs/s0-" + keyedJobID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, adopted) {
		t.Fatalf("poll past a forgetful owner: status %d body %s, want the adopter's bytes", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Salsa-Shard"); got != ts1.URL {
		t.Errorf("X-Salsa-Shard = %q, want the adopting shard %q", got, ts1.URL)
	}
	m := router.MetricsSnapshot()
	if m["jobs_lost_total"] != 0 || m["failover_total"] == 0 {
		t.Errorf("adopted job: jobs_lost=%d failover=%d, want 0/>0", m["jobs_lost_total"], m["failover_total"])
	}
}

// TestRouterJobPollSharedID: two members each hold a job under one
// older-form ID ("jN-<fingerprint prefix>", unique only within one
// process). With the pinned member down, the other member's job may be
// a different request, so the router must not serve it: the poll stays
// 503 (keep polling) until the pinned member answers. A content-keyed
// ID proves the other member's job is the same request, and is served.
func TestRouterJobPollSharedID(t *testing.T) {
	const legacyID = "j2-0123456789ab"
	var pinnedUp atomic.Bool
	fake := func(seed int, up *atomic.Bool) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if up != nil && !up.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if strings.HasPrefix(r.URL.Path, "/jobs/") {
				fmt.Fprintf(w, `{"id":%q,"state":"done","http_status":200,"result":{"seed":%d}}`+"\n", strings.TrimPrefix(r.URL.Path, "/jobs/"), seed)
				return
			}
			w.Write([]byte("{}\n"))
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	pinned, other := fake(2, &pinnedUp), fake(1, nil)
	router, err := New(Config{Backends: []string{pinned.URL, other.URL}, ProxyAttempts: 1, ProxyBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(router.Handler())
	t.Cleanup(front.Close)
	poll := func(id string) (int, string) {
		t.Helper()
		resp, err := http.Get(front.URL + "/jobs/s0-" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	if status, body := poll(legacyID); status != http.StatusServiceUnavailable {
		t.Fatalf("pinned member down, other member holds a job under the same older-form ID: status %d body %s, want 503", status, body)
	}
	pinnedUp.Store(true)
	if status, body := poll(legacyID); status != http.StatusOK || !strings.Contains(body, `"seed":2`) {
		t.Fatalf("pinned member back: status %d body %s, want its own job", status, body)
	}
	pinnedUp.Store(false)
	if status, body := poll(keyedJobID); status != http.StatusOK || !strings.Contains(body, `"seed":1`) {
		t.Fatalf("content-keyed ID: status %d body %s, want the other member's answer", status, body)
	}
}

// TestRouterBadRequest: the router validates requests itself, so a
// malformed request is bounced at the edge without spending a backend
// exchange.
func TestRouterBadRequest(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	for _, body := range []string{"{not json", `{}`, `{"graph":{"name":"x","nodes":[],"edges":[]},"mode":"bogus"}`} {
		resp, err := http.Post(tc.front.URL+"/allocate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if m := tc.router.MetricsSnapshot(); m["routed_total"] != 0 {
		t.Errorf("routed_total = %d after only malformed requests, want 0", m["routed_total"])
	}
}

// TestRouterMetricsAggregation: one scrape of the router exposes its
// own counters, per-backend health gauges, and the backends' engine
// counters re-labelled by backend.
func TestRouterMetricsAggregation(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	_, out := postAllocate(t, tc.front.URL, allocBody(t, workloads.Diffeq(), 1))
	if len(out) == 0 {
		t.Fatal("empty allocate response")
	}
	resp, err := http.Get(tc.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(scrape)
	for _, want := range []string{
		"salsa_router_requests_total 2",
		"salsa_router_routed_total 1",
		fmt.Sprintf("salsa_router_backend_healthy{backend=%q} 1", tc.backends[0].URL),
		fmt.Sprintf("salsa_router_backend_healthy{backend=%q} 1", tc.backends[1].URL),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape lacks %q", want)
		}
	}
	if !regexp.MustCompile(`salsa_engine_trials_total\{backend="http://[^"]+"\} \d+`).MatchString(text) {
		t.Errorf("scrape lacks engine counter scrape-through:\n%s", text)
	}
}

// TestRouterDrain: drain flips readiness off, rejects new work with
// Retry-After, and Drain returns once in-flight work is gone.
func TestRouterDrain(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	tc.router.StartDrain()
	rz, err := http.Get(tc.front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rz.Body)
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: status %d, want 503", rz.StatusCode)
	}
	resp, _ := postAllocate(t, tc.front.URL, allocBody(t, workloads.Figure1(), 1))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("allocate while draining: status %d, want 503 + Retry-After", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tc.router.Drain(ctx); err != nil {
		t.Errorf("Drain: %v", err)
	}
}

// TestNewValidation: bad backend lists are construction-time errors.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no backends succeeded")
	}
	if _, err := New(Config{Backends: []string{"http://a", "http://a/"}}); err == nil {
		t.Error("New with duplicate backends succeeded")
	}
	if _, err := New(Config{Backends: []string{""}}); err == nil {
		t.Error("New with empty backend succeeded")
	}
}
