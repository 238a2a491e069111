package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"salsa/internal/engine"
	"salsa/internal/journal"
	"salsa/internal/workloads"
)

// TestJobLifecycleThroughDrain: a job running when drain begins is
// allowed to finish; after drain completes its status endpoint reports
// the terminal state, and a finished job's progress is frozen — stale
// engine callbacks arriving afterwards must not mutate it (the
// behavior the lockguard annotations on job's fields claim).
func TestJobLifecycleThroughDrain(t *testing.T) {
	e := newTestServer(t, Config{})
	gate := make(chan struct{})
	e.s.runStarted = func(*allocSpec) { <-gate }
	body := allocBody(t, workloads.Figure1(), nil)

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

	// Drain begins while the job's engine run is parked on the gate.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- e.s.Drain(ctx)
	}()
	waitFor(t, "drain mode", func() bool { return e.s.Draining() })

	// The status endpoint stays available during drain (observability
	// is not allocation work) and reports the still-running job.
	jobStatus := func() JobStatus {
		t.Helper()
		code, body := e.get(t, sub.StatusURL)
		if code != http.StatusOK {
			t.Fatalf("status endpoint during lifecycle: %d", code)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("decoding job status %q: %v", body, err)
		}
		return st
	}
	if st := jobStatus(); st.State != jobQueued && st.State != jobRunning {
		t.Errorf("job state during drain %q, want queued or running", st.State)
	}

	// Drain waits for the job; once released, drain completes and the
	// job is terminal.
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := jobStatus()
	if st.State != jobDone {
		t.Fatalf("job state after drain %q, want %q (status %+v)", st.State, jobDone, st)
	}
	if st.HTTPStatus != http.StatusOK || len(st.Result) == 0 {
		t.Errorf("terminal job missing outcome: %+v", st)
	}

	// A stale engine callback after the terminal transition is dropped:
	// the finished job's progress is part of its recorded outcome.
	j, _ := e.s.jobs.get(sub.ID)
	if j == nil {
		t.Fatal("job vanished from the registry")
	}
	before := st.Progress
	j.engineEvent(engine.Event{Kind: engine.EventImproved, Cost: 1, Trial: 999})
	j.engineEvent(engine.Event{Kind: engine.EventJobFinished})
	if after := jobStatus().Progress; after != before {
		t.Errorf("finished job's progress mutated by stale events:\nbefore %+v\n after %+v", before, after)
	}
}

// submitJob posts body to /jobs, requires a 202 and returns the job ID.
func submitJob(t *testing.T, e *testServer, body []byte) string {
	t.Helper()
	status, hdr, out := e.post(t, "/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d (Retry-After %q): %s", status, hdr.Get("Retry-After"), out)
	}
	return submitResponseID(t, out)
}

// submitResponseID decodes the job ID from a 202's body.
func submitResponseID(t *testing.T, out []byte) string {
	t.Helper()
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit response %q: %v", out, err)
	}
	return sub.ID
}

// TestFinishedJobsRetire: finished jobs do not count toward MaxJobs. A
// journaled server with MaxJobs 4 accepts 2·retainFinished+4
// cache-served submissions in a row; the newest retainFinished stay
// pollable with the cached bytes, the older ones answer 410 Gone, and
// an ID past the registry's counter is still unknown (404).
func TestFinishedJobsRetire(t *testing.T) {
	e := newTestServer(t, Config{Journal: openJournal(t, t.TempDir()), MaxJobs: 4})
	body := allocBody(t, workloads.Figure1(), nil)
	_, _, sync := e.post(t, "/allocate", body)
	ids := make([]string, 2*retainFinished+4)
	for i := range ids {
		ids[i] = submitJob(t, e, body)
	}
	for i, id := range ids {
		status, out := e.get(t, "/jobs/"+id)
		if i < len(ids)-retainFinished {
			if status != http.StatusGone || !strings.Contains(string(out), "retired") {
				t.Fatalf("job %d of %d: status %d (%s), want 410 Gone for a retired job", i+1, len(ids), status, out)
			}
			continue
		}
		var st JobStatus
		if status != http.StatusOK || json.Unmarshal(out, &st) != nil {
			t.Fatalf("job %d of %d: status %d (%s), want a retained job", i+1, len(ids), status, out)
		}
		if st.State != jobDone || !bytes.Equal(append(st.Result, '\n'), sync) {
			t.Fatalf("job %d of %d: state %s, result differs from the synchronous body", i+1, len(ids), st.State)
		}
	}
	_, sum, _ := strings.Cut(ids[0], "-")
	if status, _ := e.get(t, fmt.Sprintf("/jobs/j%d-%s", len(ids)+1, sum)); status != http.StatusNotFound {
		t.Errorf("ID past the counter: status %d, want 404", status)
	}
	m := e.s.MetricsSnapshot()
	if want := int64(len(ids)); m["jobs_submitted_total"] != want || m["jobs_finished_total"] != want || m["journal_errors_total"] != 0 {
		t.Errorf("submitted %d, finished %d, journal errors %d; want %d, %d and 0",
			m["jobs_submitted_total"], m["jobs_finished_total"], m["journal_errors_total"], want, want)
	}
}

// TestRebootRetainsNewestFinished: a reboot over a journal holding more
// finished jobs than MaxJobs serves the newest retainFinished of them
// byte-identically, answers 410 for the older ones, and accepts new
// jobs.
func TestRebootRetainsNewestFinished(t *testing.T) {
	body := allocBody(t, workloads.Figure1(), nil)
	_, _, result := newTestServer(t, Config{}).post(t, "/allocate", body)
	var ar AllocateRequest
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	_, key, err := ar.ContentKey()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jrn := openJournal(t, dir)
	ids := make([]string, retainFinished+8)
	for i := range ids {
		ids[i] = fmt.Sprintf("j%d-%x", i+1, sha256.Sum256([]byte(key)))
		for _, rec := range []journal.Record{
			journal.Accepted(ids[i], body, key),
			journal.Result(ids[i], http.StatusOK, result, true, int64(i)),
		} {
			if err := jrn.Append(rec, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}

	e := newTestServer(t, Config{Journal: openJournal(t, dir), MaxJobs: 4})
	if m := e.s.MetricsSnapshot(); m["jobs_recovered_total"] != int64(len(ids)) || m["journal_errors_total"] != 0 {
		t.Fatalf("recovered %d jobs with %d journal errors, want %d and 0",
			m["jobs_recovered_total"], m["journal_errors_total"], len(ids))
	}
	for i, id := range ids {
		status, out := e.get(t, "/jobs/"+id)
		if i < len(ids)-retainFinished {
			if status != http.StatusGone {
				t.Fatalf("recovered job %d of %d: status %d, want 410", i+1, len(ids), status)
			}
			continue
		}
		var st JobStatus
		if status != http.StatusOK || json.Unmarshal(out, &st) != nil {
			t.Fatalf("recovered job %d of %d: status %d (%s)", i+1, len(ids), status, out)
		}
		if !st.Recovered || st.ElapsedMS != int64(i) || !bytes.Equal(append(st.Result, '\n'), result) {
			t.Fatalf("recovered job %d of %d: recovered %t, elapsed %d ms, identical %t; want true, %d and true",
				i+1, len(ids), st.Recovered, st.ElapsedMS, bytes.Equal(append(st.Result, '\n'), result), i)
		}
	}
	if id := submitJob(t, e, body); !strings.HasPrefix(id, fmt.Sprintf("j%d-", len(ids)+1)) {
		t.Errorf("new job after the reboot got ID %s, want one numbered past the recovered ones", id)
	}
}

// TestLiveJobsBoundSubmissions: MaxJobs counts live jobs only. Finished
// jobs never count toward it; with MaxJobs jobs held in the engine the
// next submission answers 429 with Retry-After, and once they finish
// submissions are accepted again.
func TestLiveJobsBoundSubmissions(t *testing.T) {
	e := newTestServer(t, Config{MaxJobs: 2, MaxConcurrent: 2})
	cached := allocBody(t, workloads.Figure1(), nil)
	e.post(t, "/allocate", cached)
	for i := 0; i < 3; i++ {
		submitJob(t, e, cached)
	}
	gate := make(chan struct{})
	var started atomic.Int32
	e.s.runStarted = func(*allocSpec) {
		started.Add(1)
		<-gate
	}
	var held []string
	for seed := int64(2); seed <= 3; seed++ {
		held = append(held, submitJob(t, e, allocBody(t, workloads.Figure1(), func(ar *AllocateRequest) { ar.Seed = seed })))
	}
	waitFor(t, "both jobs held in the engine", func() bool { return started.Load() == 2 })
	status, hdr, out := e.post(t, "/jobs", cached)
	if status != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Errorf("submit with MaxJobs live jobs: status %d, Retry-After %q (%s); want 429 with Retry-After",
			status, hdr.Get("Retry-After"), out)
	}
	close(gate)
	for _, id := range held {
		waitFor(t, "held job "+id+" terminal", func() bool {
			st, _ := pollStatus(t, e, id)
			return st.State == jobDone
		})
	}
	submitJob(t, e, cached)
}
