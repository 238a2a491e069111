package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"salsa/internal/workloads"
)

// TestConcurrentCacheCoherence is the singleflight/cache coherence
// property test: one fingerprint hammered by a deterministic mix of
// patient synchronous callers, impatient callers that give up while
// parked, and asynchronous jobs — all while the single leader is held
// at the gate. The properties:
//
//   - every 200 body — leader, shared follower, job result, and a
//     fresh cache hit afterwards — is byte-identical (job results
//     modulo JSON re-marshaling, which compacts);
//   - every impatient caller becomes exactly one
//     salsa_singleflight_abandoned_total increment and exactly one
//     HTTP 408 response — the two counters reconcile;
//   - every cache miss is accounted as exactly one lead, share, or
//     abandonment.
//
// Run under -race, this also proves the park/wake/abandon paths are
// data-race-free under real concurrency.
func TestConcurrentCacheCoherence(t *testing.T) {
	const (
		patient   = 20
		impatient = 10
		asyncJobs = 10
	)
	e := newTestServer(t, Config{MaxConcurrent: 2})
	gate := make(chan struct{})
	e.s.runStarted = func(*allocSpec) { <-gate }

	body := allocBody(t, workloads.Diffeq(), nil)
	spec, err := e.s.parseRequest(&AllocateRequest{Graph: mustMarshal(t, workloads.Diffeq()), Restarts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	parked := func(n int) {
		t.Helper()
		waitFor(t, fmt.Sprintf("%d callers in flight", n), func() bool {
			return e.s.flight.inFlight(spec.key) == n
		})
	}

	// The leader: misses the cache, starts the one engine run, parks.
	type reply struct {
		status int
		body   []byte
	}
	leaderCh := make(chan reply, 1)
	go func() {
		status, _, out := e.post(t, "/allocate", body)
		leaderCh <- reply{status, out}
	}()
	parked(1)

	// Patient followers: park behind the leader and wait it out.
	patientCh := make(chan reply, patient)
	for i := 0; i < patient; i++ {
		go func() {
			status, _, out := e.post(t, "/allocate", body)
			patientCh <- reply{status, out}
		}()
	}
	parked(1 + patient)

	// Impatient followers: park, then give up (client disconnect) while
	// the leader still runs. Each must count one abandonment and one
	// 408 response; none may disturb the leader.
	var cancels []context.CancelFunc
	var impatientWG sync.WaitGroup
	for i := 0; i < impatient; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, e.ts.URL+"/allocate", bytes.NewReader(body))
		if rerr != nil {
			t.Fatal(rerr)
		}
		req.Header.Set("Content-Type", "application/json")
		impatientWG.Add(1)
		go func() {
			defer impatientWG.Done()
			resp, derr := http.DefaultClient.Do(req)
			if derr == nil {
				// The cancel usually aborts the exchange client-side,
				// but the 408 can win the race; either is fine.
				if _, cerr := io.Copy(io.Discard, resp.Body); cerr != nil {
					t.Logf("draining impatient response: %v", cerr)
				}
				if cerr := resp.Body.Close(); cerr != nil {
					t.Logf("closing impatient response: %v", cerr)
				}
			}
		}()
	}
	parked(1 + patient + impatient)

	// Async jobs: each submission deduplicates onto the same in-flight
	// run in the background.
	var jobIDs []string
	for i := 0; i < asyncJobs; i++ {
		status, _, out := e.post(t, "/jobs", body)
		if status != http.StatusAccepted {
			t.Fatalf("job submission %d: status %d, body %s", i, status, out)
		}
		var doc struct {
			ID string `json:"id"`
		}
		if jerr := json.Unmarshal(out, &doc); jerr != nil {
			t.Fatal(jerr)
		}
		jobIDs = append(jobIDs, doc.ID)
	}
	parked(1 + patient + impatient + asyncJobs)

	// The impatient give up, one abandonment each, while the run is
	// still in flight.
	for _, cancel := range cancels {
		cancel()
	}
	impatientWG.Wait()
	waitFor(t, "abandonments to be counted", func() bool {
		return e.s.metrics.FlightAbandoned.Load() == impatient
	})

	// Release the leader; everyone still parked shares its outcome.
	close(gate)
	canonical := <-leaderCh
	if canonical.status != http.StatusOK {
		t.Fatalf("leader status %d, body %s", canonical.status, canonical.body)
	}
	if decodeResult(t, canonical.body).Partial {
		t.Fatal("leader result is partial under no deadline pressure")
	}
	for i := 0; i < patient; i++ {
		r := <-patientCh
		if r.status != http.StatusOK {
			t.Fatalf("patient follower %d: status %d, body %s", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, canonical.body) {
			t.Fatalf("patient follower %d body differs from leader's:\n got %s\nwant %s", i, r.body, canonical.body)
		}
	}
	waitFor(t, "all jobs to finish", func() bool {
		return e.s.metrics.JobsFinished.Load() == asyncJobs
	})
	var compactLeader bytes.Buffer
	if cerr := json.Compact(&compactLeader, canonical.body); cerr != nil {
		t.Fatal(cerr)
	}
	for _, id := range jobIDs {
		status, out := e.get(t, "/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("job %s status endpoint: %d", id, status)
		}
		var st JobStatus
		if jerr := json.Unmarshal(out, &st); jerr != nil {
			t.Fatal(jerr)
		}
		if st.State != jobDone || !st.Progress.Merged {
			t.Fatalf("job %s: state %s merged=%t, want done/merged", id, st.State, st.Progress.Merged)
		}
		if !bytes.Equal(st.Result, compactLeader.Bytes()) {
			t.Fatalf("job %s result differs from leader body:\n got %s\nwant %s", id, st.Result, compactLeader.Bytes())
		}
	}

	// A fresh request now hits the cache with the same bytes.
	status, hdr, cached := e.post(t, "/allocate", body)
	if status != http.StatusOK || hdr.Get("X-Salsa-Cache") != "hit" {
		t.Fatalf("post-run request: status %d cache %q, want 200 hit", status, hdr.Get("X-Salsa-Cache"))
	}
	if !bytes.Equal(cached, canonical.body) {
		t.Fatalf("cache hit body differs from leader's:\n got %s\nwant %s", cached, canonical.body)
	}

	// Reconciliation. Misses: 1 leader + patient + impatient + jobs
	// (every caller arrived before the run finished). Each became
	// exactly one lead, share, or abandonment; each abandonment is
	// exactly one 408.
	m := e.s.MetricsSnapshot()
	wantMisses := int64(1 + patient + impatient + asyncJobs)
	if m["cache_misses_total"] != wantMisses {
		t.Errorf("cache_misses_total = %d, want %d", m["cache_misses_total"], wantMisses)
	}
	if got := m["singleflight_leader_total"] + m["singleflight_shared_total"] + m["singleflight_abandoned_total"]; got != wantMisses {
		t.Errorf("leads+shared+abandoned = %d, want %d (one per miss)", got, wantMisses)
	}
	if m["singleflight_abandoned_total"] != impatient {
		t.Errorf("singleflight_abandoned_total = %d, want %d", m["singleflight_abandoned_total"], impatient)
	}
	if m["responses_total_408"] != m["singleflight_abandoned_total"] {
		t.Errorf("responses_total_408 = %d does not reconcile with singleflight_abandoned_total = %d",
			m["responses_total_408"], m["singleflight_abandoned_total"])
	}
	if m["deadline_empty_total"] != 0 {
		t.Errorf("deadline_empty_total = %d, want 0 (nobody ran out of engine deadline)", m["deadline_empty_total"])
	}
	if m["engine_invocations_total"] != 1 {
		t.Errorf("engine_invocations_total = %d, want 1 (one leader)", m["engine_invocations_total"])
	}
}
