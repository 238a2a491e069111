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
// latency, not an answer — the exchange moves to the next backend in
// the key's placement order.
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
	// The health-filtered routing decision must agree with a fresh ring
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
// are immediate 404s, proxied nowhere and not counted as lost; a job
// the live pinned shard does not know is lost (404 + jobs_lost_total —
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

	// Loss: the pinned shard is up and does not know the job.
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

// TestRouterRetiredJob: a backend answers 410 Gone for a finished job
// it has retired, and the router passes the pinned shard's 410
// through: one routed request, no job counted lost. The same backend
// ID pinned to a member that never held it is lost: that member
// answers 404, and the shard that retired the job is not asked.
func TestRouterRetiredJob(t *testing.T) {
	// One more job than a service keeps finished, so the first retires.
	const submissions = 1024 + 1
	tc := newTestCluster(t, 2, Config{ProxyAttempts: 1})
	body := allocBody(t, workloads.Figure1(), 3)
	// Fill the owner's cache, so that every job finishes before its 202.
	postAllocate(t, tc.front.URL, body)
	var first string
	for i := 0; i < submissions; i++ {
		resp, err := http.Post(tc.front.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sub struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || err != nil {
			t.Fatalf("submission %d: status %d, %v", i+1, resp.StatusCode, err)
		}
		if i == 0 {
			first = sub.ID
		}
	}
	poll := func(id string) int {
		t.Helper()
		resp, err := http.Get(tc.front.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	before := tc.router.MetricsSnapshot()
	if status := poll(first); status != http.StatusGone {
		t.Fatalf("retired job %s: status %d, want 410", first, status)
	}
	m := tc.router.MetricsSnapshot()
	if routed := m["routed_total"] - before["routed_total"]; routed != 1 || m["failover_total"] != 0 || m["jobs_lost_total"] != 0 {
		t.Errorf("retired job: %d routed requests, failovers %d, jobs lost %d; want 1, 0 and 0",
			routed, m["failover_total"], m["jobs_lost_total"])
	}

	// The same backend ID pinned to the other shard, which never held
	// it: the pin answers 404.
	pin, backendID, _ := strings.Cut(first, "-")
	other := "s0"
	if pin == "s0" {
		other = "s1"
	}
	if status := poll(other + "-" + backendID); status != http.StatusNotFound {
		t.Errorf("job pinned to a shard that never held it: status %d, want 404", status)
	}
	if m := tc.router.MetricsSnapshot(); m["failover_total"] != 0 || m["jobs_lost_total"] != 1 {
		t.Errorf("410 from a member other than the pin: failovers %d, jobs lost %d; want 0 and 1",
			m["failover_total"], m["jobs_lost_total"])
	}
}

// keyedJobID is a content-keyed job ID of the form the service issues.
var keyedJobID = "j1-" + strings.Repeat("de", 32)

// TestRouterJobPollAsksOnlyThePin: the pinned shard is the only
// authority on a job, so a poll it answers 404 is lost at once, even
// while another member is down. The router keeps its default proxy
// retry budget, which a poll of the dead member would spend.
func TestRouterJobPollAsksOnlyThePin(t *testing.T) {
	var urls []string
	var servers []*httptest.Server
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(service.New(service.Config{}).Handler())
		t.Cleanup(ts.Close)
		servers = append(servers, ts)
		urls = append(urls, ts.URL)
	}
	router, err := New(Config{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(router.Handler())
	t.Cleanup(front.Close)
	servers[2].Close()

	resp, err := http.Get(front.URL + "/jobs/s0-j1-deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	m := router.MetricsSnapshot()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("job the live pin does not know, another member down: status %d after %d routed exchanges, want 404",
			resp.StatusCode, m["routed_total"])
	}
	if m["routed_total"] != 1 || m["jobs_lost_total"] != 1 || m["job_unavailable_total"] != 0 {
		t.Errorf("routed=%d jobs_lost=%d unavailable=%d, want 1/1/0",
			m["routed_total"], m["jobs_lost_total"], m["job_unavailable_total"])
	}
}

// TestRouterJobPollSharedID: two members each hold a job under one ID,
// an older-form one ("jN-<fingerprint prefix>") and a content-keyed
// one. The other member's job may be another request's, and the
// pinned member is the only authority on its jobs, so while it is down
// both polls stay 503 (keep polling); once it is up it serves its own
// job.
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

	for _, id := range []string{legacyID, keyedJobID} {
		if status, body := poll(id); status != http.StatusServiceUnavailable {
			t.Errorf("pinned member down, other member holds a job under %s: status %d body %s, want 503", id, status, body)
		}
	}
	pinnedUp.Store(true)
	for _, id := range []string{legacyID, keyedJobID} {
		if status, body := poll(id); status != http.StatusOK || !strings.Contains(body, `"seed":2`) {
			t.Errorf("pinned member back, job %s: status %d body %s, want its own job", id, status, body)
		}
	}
}

// TestRouterBadRequest: the router validates requests itself, so a
// malformed request is bounced at the edge without spending a backend
// exchange — on repeat too, since a rejected body never enters the
// body table.
func TestRouterBadRequest(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	for _, body := range []string{
		"{not json", `{}`,
		`{"graph":{"name":"x","nodes":[],"edges":[]},"mode":"bogus"}`,
		`{"graph":{"name":"x","nodes":[],"edges":[]},"steps":-4}`,
	} {
		for i := 0; i < 2; i++ {
			resp, err := http.Post(tc.front.URL+"/allocate", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("body %q, attempt %d: status %d, want 400", body, i+1, resp.StatusCode)
			}
		}
	}
	m := tc.router.MetricsSnapshot()
	if m["routed_total"] != 0 {
		t.Errorf("routed_total = %d after only malformed requests, want 0", m["routed_total"])
	}
	if m["body_digest_hits_total"] != 0 || tc.router.bodies.Len() != 0 {
		t.Errorf("malformed requests: %d body-digest hits, %d table entries; want 0 and 0",
			m["body_digest_hits_total"], tc.router.bodies.Len())
	}
}

// TestRouterOversizedBody: a body one byte over service.MaxBodyBytes
// is answered 413 at the edge, on both submission paths, and no
// backend exchange is spent on it.
func TestRouterOversizedBody(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	body := allocBody(t, workloads.Figure1(), 1)
	body = append(body, bytes.Repeat([]byte(" "), service.MaxBodyBytes+1-len(body))...)
	for _, path := range []string{"/allocate", "/jobs"} {
		resp, err := http.Post(tc.front.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(out, &doc) != nil || doc.Error == "" {
			t.Errorf("POST %s of %d bytes: status %d, body %q; want 413 with an error document", path, len(body), resp.StatusCode, out)
		}
	}
	if m := tc.router.MetricsSnapshot(); m["routed_total"] != 0 {
		t.Errorf("routed_total = %d after only oversized bodies, want 0", m["routed_total"])
	}
}

// TestRouterBodyTable: a body the router has addressed once is not
// decoded again. Its repeat is a router-cache hit served from the table,
// and the same body as a job routes from the table to the same shard
// the sync request went to. With caching off, the table is off too.
func TestRouterBodyTable(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	body := allocBody(t, workloads.Figure1(), 1)
	hits := func() int64 { return tc.router.MetricsSnapshot()["body_digest_hits_total"] }

	resp1, out1 := postAllocate(t, tc.front.URL, body)
	shard := resp1.Header.Get("X-Salsa-Shard")
	if resp1.StatusCode != http.StatusOK || hits() != 0 {
		t.Fatalf("first request: status %d, %d body-digest hits; want 200 and 0", resp1.StatusCode, hits())
	}
	resp2, out2 := postAllocate(t, tc.front.URL, body)
	if resp2.Header.Get("X-Salsa-Cache") != "hit" || resp2.Header.Get("X-Salsa-Shard") != "router" || !bytes.Equal(out1, out2) {
		t.Errorf("repeat: cache %q shard %q identical %t, want a byte-identical router hit",
			resp2.Header.Get("X-Salsa-Cache"), resp2.Header.Get("X-Salsa-Shard"), bytes.Equal(out1, out2))
	}
	if hits() != 1 {
		t.Errorf("after the repeat: %d body-digest hits, want 1", hits())
	}

	resp, err := http.Post(tc.front.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Salsa-Shard") != shard {
		t.Errorf("job from a known body: status %d shard %q, want 202 on %q", resp.StatusCode, resp.Header.Get("X-Salsa-Shard"), shard)
	}
	if hits() != 2 || tc.router.bodies.Len() != 1 {
		t.Errorf("after the job: %d body-digest hits, %d table entries; want 2 and 1", hits(), tc.router.bodies.Len())
	}

	off := newTestCluster(t, 1, Config{CacheEntries: -1})
	for i := 0; i < 2; i++ {
		if resp, _ := postAllocate(t, off.front.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("caching off, request %d: status %d", i+1, resp.StatusCode)
		}
	}
	if m := off.router.MetricsSnapshot(); m["body_digest_hits_total"] != 0 || off.router.bodies.Len() != 0 {
		t.Errorf("caching off: %d body-digest hits, %d table entries; want 0 and 0", m["body_digest_hits_total"], off.router.bodies.Len())
	}
}

// TestRouterBodyTableCoversBackendCaches: the body table is sized to
// the fleet's result caches, not the router's alone. With a 2-entry
// router cache and one backend, the first of three bodies has left the
// router cache when it comes back, but not the table: the repeat is
// proxied to the backend, whose cache answers it, and is addressed
// without being decoded again.
func TestRouterBodyTableCoversBackendCaches(t *testing.T) {
	tc := newTestCluster(t, 1, Config{CacheEntries: 2})
	var bodies [][]byte
	for seed := int64(1); seed <= 3; seed++ {
		body := allocBody(t, workloads.Figure1(), seed)
		if resp, out := postAllocate(t, tc.front.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, out)
		}
		bodies = append(bodies, body)
	}
	resp, out := postAllocate(t, tc.front.URL, bodies[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat: status %d: %s", resp.StatusCode, out)
	}
	if c, s := resp.Header.Get("X-Salsa-Cache"), resp.Header.Get("X-Salsa-Shard"); c != "hit" || s != tc.backends[0].URL {
		t.Errorf("repeat: X-Salsa-Cache=%q X-Salsa-Shard=%q, want a backend hit on %s", c, s, tc.backends[0].URL)
	}
	m := tc.router.MetricsSnapshot()
	if m["cache_misses_total"] != 4 || m["body_digest_hits_total"] != 1 {
		t.Errorf("router cache misses %d, body-digest hits %d; want 4 and 1", m["cache_misses_total"], m["body_digest_hits_total"])
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
		"salsa_router_body_digest_hits_total 0",
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
