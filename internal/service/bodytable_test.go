package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"

	"salsa/internal/workloads"
)

// digestHits reads the body-table counter from the snapshot map, the
// same document /metrics and expvar render.
func digestHits(e *testServer) int64 {
	return e.s.MetricsSnapshot()["body_digest_hits_total"]
}

// bodyEndpoints are the two endpoints the body table fronts. serve
// posts body to one and returns the allocation's HTTP status and
// body: /allocate's response, or the outcome a /jobs submission's poll
// reports once the job is terminal (a rejected submission returns its
// own status and body).
var bodyEndpoints = []struct {
	path  string
	serve func(t *testing.T, e *testServer, body []byte) (int, []byte)
}{
	{"/allocate", func(t *testing.T, e *testServer, body []byte) (int, []byte) {
		status, _, out := e.post(t, "/allocate", body)
		return status, out
	}},
	{"/jobs", serveJob},
}

// serveJob submits body as an async job and polls it to its terminal
// state. A done job's result comes back with the trailing newline a
// synchronous body carries, so the two compare byte for byte.
func serveJob(t *testing.T, e *testServer, body []byte) (int, []byte) {
	t.Helper()
	status, _, out := e.post(t, "/jobs", body)
	if status != http.StatusAccepted {
		return status, out
	}
	id := submitResponseID(t, out)
	var st JobStatus
	waitFor(t, "job "+id+" terminal", func() bool {
		st, _ = pollStatus(t, e, id)
		return st.State == jobDone || st.State == jobFailed
	})
	if st.State != jobDone {
		return st.HTTPStatus, ErrorBody(st.Error)
	}
	return st.HTTPStatus, append(st.Result, '\n')
}

// TestBodyTableServesRepeat: a byte-identical repeat of a body whose
// result is cached is served from the body table — same bytes, a cache
// hit, no decode (the counter counts exactly the requests served
// without one) and no engine run — on both endpoints. A job's polled
// result equals the synchronous body.
func TestBodyTableServesRepeat(t *testing.T) {
	for _, ep := range bodyEndpoints {
		t.Run(ep.path, func(t *testing.T) {
			e := newTestServer(t, Config{})
			body := allocBody(t, workloads.Diffeq(), nil)

			status, first := ep.serve(t, e, body)
			if m := e.s.MetricsSnapshot(); status != http.StatusOK || m["cache_misses_total"] != 1 {
				t.Fatalf("first request: status %d, %d cache misses: %s", status, m["cache_misses_total"], first)
			}
			if n := digestHits(e); n != 0 {
				t.Errorf("first request counted %d body-digest hits, want 0", n)
			}
			for i := 1; i <= 3; i++ {
				status, again := ep.serve(t, e, body)
				if m := e.s.MetricsSnapshot(); status != http.StatusOK || m["cache_hits_total"] != int64(i) {
					t.Fatalf("repeat %d: status %d, %d cache hits", i, status, m["cache_hits_total"])
				}
				if !bytes.Equal(first, again) {
					t.Fatalf("repeat %d body differs from the miss that filled the cache", i)
				}
				if n := digestHits(e); n != int64(i) {
					t.Errorf("after repeat %d: %d body-digest hits, want %d", i, n, i)
				}
			}
			if m := e.s.MetricsSnapshot(); m["engine_invocations_total"] != 1 {
				t.Errorf("engine runs %d, want 1", m["engine_invocations_total"])
			}
			if n := e.s.bodies.Len(); n != 1 {
				t.Errorf("body table holds %d entries, want 1", n)
			}
			if _, _, sync := e.post(t, "/allocate", body); !bytes.Equal(first, sync) {
				t.Errorf("%s served\n%s\nbut /allocate serves\n%s", ep.path, first, sync)
			}
		})
	}
}

// TestBodyTableReencodedBody: the same request in different bytes
// (whitespace, field order) has its own digest, so it takes the full
// decode — and still hits the result cache through its content address
// — and then records that digest, so its own repeat skips the decode.
func TestBodyTableReencodedBody(t *testing.T) {
	e := newTestServer(t, Config{})
	body := allocBody(t, workloads.Figure1(), nil)
	_, _, first := e.post(t, "/allocate", body)

	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	reencoded := []byte(fmt.Sprintf("{ \"seed\": %s,\n  \"restarts\": %s,\n  \"graph\": %s }", doc["seed"], doc["restarts"], doc["graph"]))
	if bytes.Equal(reencoded, body) {
		t.Fatal("re-encoding produced the same bytes")
	}
	status, hdr, out := e.post(t, "/allocate", reencoded)
	if status != http.StatusOK || hdr.Get("X-Salsa-Cache") != "hit" || !bytes.Equal(first, out) {
		t.Fatalf("re-encoded request: status %d cache %q, identical %t; want a byte-identical hit",
			status, hdr.Get("X-Salsa-Cache"), bytes.Equal(first, out))
	}
	if n := digestHits(e); n != 0 {
		t.Errorf("re-encoded body counted %d body-digest hits before its digest was recorded, want 0", n)
	}
	if n := e.s.bodies.Len(); n != 2 {
		t.Errorf("body table holds %d entries, want 2 (one per distinct body)", n)
	}
	if _, _, out := e.post(t, "/allocate", reencoded); !bytes.Equal(first, out) || digestHits(e) != 1 {
		t.Errorf("repeat of the re-encoded body: identical %t, body-digest hits %d; want true and 1",
			bytes.Equal(first, out), digestHits(e))
	}
	if runs := e.s.metrics.EngineRuns.Load(); runs != 1 {
		t.Errorf("engine runs %d, want 1", runs)
	}
}

// TestBodyTableNeverRecordsRejects: a body answered 400 is answered 400
// again on repeat, on either endpoint, and never enters the table, so
// a known digest always names a body that decoded and validated.
func TestBodyTableNeverRecordsRejects(t *testing.T) {
	e := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"malformed JSON", []byte("{nope")},
		{"over-cap restarts", allocBody(t, workloads.Figure1(), func(ar *AllocateRequest) { ar.Restarts = MaxRestarts + 1 })},
		{"unknown mode", allocBody(t, workloads.Figure1(), func(ar *AllocateRequest) { ar.Mode = "quantum" })},
		{"negative steps", allocBody(t, workloads.Figure1(), func(ar *AllocateRequest) { ar.Steps = -4 })},
		{"negative extra_registers", allocBody(t, workloads.Figure1(), func(ar *AllocateRequest) { ar.ExtraRegisters = -3 })},
	} {
		for _, ep := range bodyEndpoints {
			for i := 0; i < 2; i++ {
				if status, out := ep.serve(t, e, tc.body); status != http.StatusBadRequest {
					t.Errorf("%s %s, attempt %d: status %d, want 400 (%s)", ep.path, tc.name, i+1, status, out)
				}
			}
		}
	}
	if n := e.s.bodies.Len(); n != 0 {
		t.Errorf("body table recorded %d rejected bodies, want 0", n)
	}
	m := e.s.MetricsSnapshot()
	if m["body_digest_hits_total"] != 0 || m["engine_invocations_total"] != 0 || m["jobs_submitted_total"] != 0 {
		t.Errorf("rejected bodies: %d body-digest hits, %d engine runs, %d jobs; want 0, 0 and 0",
			m["body_digest_hits_total"], m["engine_invocations_total"], m["jobs_submitted_total"])
	}
}

// TestBodyTableEvictedResult: a known digest whose result has left the
// cache falls back to the decode and an engine run, and serves the
// same bytes, on both endpoints. The eviction goes through
// Hooks.EvictCache, which the table's lookup honors like every other
// cache lookup.
func TestBodyTableEvictedResult(t *testing.T) {
	for _, ep := range bodyEndpoints {
		t.Run(ep.path, func(t *testing.T) {
			var evict atomic.Bool
			e := newTestServer(t, Config{Hooks: &Hooks{EvictCache: func(string) bool { return evict.Load() }}})
			body := allocBody(t, workloads.Diffeq(), nil)
			_, first := ep.serve(t, e, body)

			evict.Store(true)
			status, again := ep.serve(t, e, body)
			evict.Store(false)
			m := e.s.MetricsSnapshot()
			if status != http.StatusOK || m["cache_misses_total"] != 2 || !bytes.Equal(first, again) {
				t.Fatalf("evicted repeat: status %d, %d cache misses, identical %t; want a byte-identical second miss",
					status, m["cache_misses_total"], bytes.Equal(first, again))
			}
			if m["engine_invocations_total"] != 2 || m["body_digest_hits_total"] != 0 {
				t.Errorf("engine runs %d, body-digest hits %d; want 2 and 0", m["engine_invocations_total"], m["body_digest_hits_total"])
			}
			status, refilled := ep.serve(t, e, body)
			if m := e.s.MetricsSnapshot(); status != http.StatusOK || m["cache_hits_total"] != 1 || digestHits(e) != 1 {
				t.Errorf("after the refill: status %d, %d cache hits, %d body-digest hits; want 200, 1 and 1",
					status, m["cache_hits_total"], digestHits(e))
			}
			if _, _, sync := e.post(t, "/allocate", body); !bytes.Equal(refilled, sync) || !bytes.Equal(first, sync) {
				t.Errorf("%s results differ from the synchronous body", ep.path)
			}
		})
	}
}

// TestBodyTableCapacity: the table shares CacheEntries with the result
// cache — bounded by it, and off with it.
func TestBodyTableCapacity(t *testing.T) {
	e := newTestServer(t, Config{CacheEntries: 2})
	for seed := int64(1); seed <= 4; seed++ {
		e.post(t, "/allocate", allocBody(t, workloads.Figure1(), func(ar *AllocateRequest) { ar.Seed = seed }))
		if n := e.s.bodies.Len(); n > 2 {
			t.Fatalf("after %d distinct bodies the table holds %d entries, over its capacity 2", seed, n)
		}
	}
	if n := e.s.bodies.Len(); n != 2 {
		t.Errorf("table holds %d entries, want 2", n)
	}

	off := newTestServer(t, Config{CacheEntries: -1})
	body := allocBody(t, workloads.Figure1(), nil)
	for i := 0; i < 3; i++ {
		if status, hdr, _ := off.post(t, "/allocate", body); status != http.StatusOK || hdr.Get("X-Salsa-Cache") != "miss" {
			t.Errorf("caching off, request %d: status %d cache %q, want 200 miss", i, status, hdr.Get("X-Salsa-Cache"))
		}
	}
	if n := off.s.bodies.Len(); n != 0 || digestHits(off) != 0 {
		t.Errorf("caching off: table holds %d entries, %d body-digest hits; want 0 and 0", n, digestHits(off))
	}
}
