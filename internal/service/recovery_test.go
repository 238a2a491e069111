package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"salsa/internal/clock"
	"salsa/internal/journal"
	"salsa/internal/workloads"
)

// openJournal opens a journal in dir, failing the test on I/O errors.
func openJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	jrn, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	t.Cleanup(func() { jrn.Close() })
	return jrn
}

// pollStatus fetches and decodes one job status.
func pollStatus(t *testing.T, e *testServer, id string) (JobStatus, []byte) {
	t.Helper()
	status, body := e.get(t, "/jobs/"+id)
	if status != http.StatusOK {
		t.Fatalf("GET /jobs/%s: status %d: %s", id, status, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st, body
}

// TestJobRecoveryTerminal is the end-to-end durability contract: accept
// a job, let it finish, SIGKILL the process (journal torn at the kill
// point), reboot with the same journal directory — and the poll keeps
// answering with byte-identical result bytes, recovered=true,
// jobs_recovered_total=1, and elapsed_ms frozen at the original
// completion.
func TestJobRecoveryTerminal(t *testing.T) {
	dir := t.TempDir()
	jrn := openJournal(t, dir)
	e := newTestServer(t, Config{Journal: jrn})
	body := allocBody(t, workloads.Figure1(), nil)

	status, _, sub := e.post(t, "/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, sub)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(sub, &job); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job terminal", func() bool {
		st, _ := pollStatus(t, e, job.ID)
		return st.State == jobDone || st.State == jobFailed
	})
	before, _ := pollStatus(t, e, job.ID)
	if before.State != jobDone || before.Recovered {
		t.Fatalf("pre-kill status: state=%s recovered=%t, want done/false", before.State, before.Recovered)
	}

	// SIGKILL: the journal stops accepting writes and its unsynced tail
	// is torn. Everything acknowledged was fsynced, so the tear must
	// cost nothing.
	jrn.Kill(12345)

	// The dead process's disk can no longer accept new jobs; a submit
	// against it must unwind, not fake an acceptance.
	status, hdr, out := e.post(t, "/jobs", allocBody(t, workloads.Diffeq(), nil))
	if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Errorf("submit on a dead journal: status %d (%s), want 503 + Retry-After", status, out)
	}

	// Reboot: a fresh server over the same directory.
	e2 := newTestServer(t, Config{Journal: openJournal(t, dir)})
	if n := e2.s.MetricsSnapshot()["jobs_recovered_total"]; n != 1 {
		t.Errorf("jobs_recovered_total = %d after reboot, want 1", n)
	}
	after, _ := pollStatus(t, e2, job.ID)
	if after.State != jobDone || !after.Recovered {
		t.Fatalf("post-reboot status: state=%s recovered=%t, want done/true", after.State, after.Recovered)
	}
	if !bytes.Equal(after.Result, before.Result) || after.HTTPStatus != before.HTTPStatus {
		t.Errorf("recovered result diverges from the pre-kill answer")
	}
	if after.ElapsedMS != before.ElapsedMS {
		t.Errorf("elapsed_ms = %d after reboot, want frozen at %d", after.ElapsedMS, before.ElapsedMS)
	}
	// Frozen means frozen: the answer does not age with the new process.
	time.Sleep(30 * time.Millisecond)
	again, _ := pollStatus(t, e2, job.ID)
	if again.ElapsedMS != before.ElapsedMS {
		t.Errorf("elapsed_ms drifted to %d, want frozen at %d", again.ElapsedMS, before.ElapsedMS)
	}

	// The recovered body must also match what the sync path computes
	// from scratch — the byte-stability contract.
	status, _, syncBody := e2.post(t, "/allocate", body)
	if status != http.StatusOK {
		t.Fatalf("sync allocate on reboot: status %d", status)
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, after.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, syncBody); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("recovered job body diverges from a fresh sync allocation")
	}
}

// TestJobRecoveryInFlight: a job SIGKILLed mid-run — accepted and
// acknowledged, no terminal record — is re-enqueued on reboot and runs
// to the same bytes a never-crashed run would have produced.
func TestJobRecoveryInFlight(t *testing.T) {
	dir := t.TempDir()
	jrn := openJournal(t, dir)
	e := newTestServer(t, Config{Journal: jrn})

	// Gate the engine run so the kill reliably lands mid-flight.
	gate := make(chan struct{})
	e.s.runStarted = func(*allocSpec) { <-gate }
	defer close(gate)

	status, _, sub := e.post(t, "/jobs", allocBody(t, workloads.FIR8(), nil))
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, sub)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(sub, &job); err != nil {
		t.Fatal(err)
	}
	st, _ := pollStatus(t, e, job.ID)
	if st.State == jobDone || st.State == jobFailed {
		t.Fatalf("job terminal before the engine gate released: %s", st.State)
	}
	jrn.Kill(0)

	e2 := newTestServer(t, Config{Journal: openJournal(t, dir)})
	if n := e2.s.MetricsSnapshot()["jobs_recovered_total"]; n != 1 {
		t.Errorf("jobs_recovered_total = %d, want 1", n)
	}
	waitFor(t, "recovered job terminal", func() bool {
		st, _ := pollStatus(t, e2, job.ID)
		return st.State == jobDone || st.State == jobFailed
	})
	after, _ := pollStatus(t, e2, job.ID)
	if after.State != jobDone || !after.Recovered {
		t.Fatalf("recovered run: state=%s recovered=%t, want done/true", after.State, after.Recovered)
	}
	status, _, syncBody := e2.post(t, "/allocate", allocBody(t, workloads.FIR8(), nil))
	if status != http.StatusOK {
		t.Fatalf("sync allocate: status %d", status)
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, after.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, syncBody); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("re-run job body diverges from the sync path")
	}
}

// TestJobRecoveryIgnoresLegacyProgress: a journal written by an earlier
// version may hold a kind-2 progress checkpoint after a job's
// acceptance. The job's re-run on reboot reports the portfolio progress
// of one uncrashed run of its request, not that run's counts on top of
// the checkpoint's.
func TestJobRecoveryIgnoresLegacyProgress(t *testing.T) {
	body := allocBody(t, workloads.FIR8(), nil)
	e := newTestServer(t, Config{})
	status, _, out := e.post(t, "/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, out)
	}
	id := submitResponseID(t, out)
	var want JobStatus
	waitFor(t, "uncrashed job terminal", func() bool {
		want, _ = pollStatus(t, e, id)
		return want.State == jobDone || want.State == jobFailed
	})
	if want.State != jobDone || want.Progress.PortfolioJobsStarted == 0 {
		t.Fatalf("uncrashed run: state %s, progress %+v; want done with portfolio progress", want.State, want.Progress)
	}

	var ar AllocateRequest
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	_, key, err := ar.ContentKey()
	if err != nil {
		t.Fatal(err)
	}
	checkpoint, err := json.Marshal(want.Progress)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jrn := openJournal(t, dir)
	if err := jrn.AppendAll([]journal.Record{
		journal.Accepted(id, body, key),
		{Kind: 2, ID: id, Payload: checkpoint},
	}, true); err != nil {
		t.Fatal(err)
	}
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newTestServer(t, Config{Journal: openJournal(t, dir)})
	var got JobStatus
	waitFor(t, "recovered job terminal", func() bool {
		got, _ = pollStatus(t, e2, id)
		return got.State == jobDone || got.State == jobFailed
	})
	if got.State != jobDone || !got.Recovered {
		t.Fatalf("recovered job: state %s, recovered %t; want done/true", got.State, got.Recovered)
	}
	if got.Progress.PortfolioJobsStarted != want.Progress.PortfolioJobsStarted ||
		got.Progress.PortfolioJobsFinished != want.Progress.PortfolioJobsFinished {
		t.Errorf("recovered job reports %d portfolio jobs started / %d finished; the uncrashed run reported %d / %d",
			got.Progress.PortfolioJobsStarted, got.Progress.PortfolioJobsFinished,
			want.Progress.PortfolioJobsStarted, want.Progress.PortfolioJobsFinished)
	}
}

// TestJobRecoverySurvivesUnjournaledServer: a server without a journal
// keeps the pre-durability behavior — no recovered jobs, no journal
// errors, submissions fine.
func TestJobRecoverySurvivesUnjournaledServer(t *testing.T) {
	e := newTestServer(t, Config{})
	status, _, sub := e.post(t, "/jobs", allocBody(t, workloads.Figure1(), nil))
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, sub)
	}
	m := e.s.MetricsSnapshot()
	if m["jobs_recovered_total"] != 0 || m["journal_errors_total"] != 0 {
		t.Errorf("journal counters moved on an unjournaled server: %v", m)
	}
}

// TestJobIDs: a fresh job's ID is "jN-" plus the SHA-256 of its
// content key, so equal keys give equal ID suffixes and different keys
// different ones; an ID of the older "jN-<fingerprint prefix>" form, as
// journals written by earlier versions hold, still restores and
// advances the sequence. Both forms are valid job IDs; nothing else
// is.
func TestJobIDs(t *testing.T) {
	r := newJobRegistry(8, retainFinished, clock.NewVirtual())
	const legacy = "j7-3c62da355d7c"
	if _, ok := r.restore(legacy); !ok {
		t.Fatalf("restore(%q) refused", legacy)
	}
	a, err := r.create("fp|mode=salsa seed=1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.create("fp|mode=salsa seed=2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(a.id, "j8-") || !issuedJobID.MatchString(a.id) || !issuedJobID.MatchString(b.id) {
		t.Fatalf("fresh IDs %q, %q: want j8-… and jN-<64 hex>", a.id, b.id)
	}
	if strings.TrimPrefix(a.id, "j8-") == strings.TrimPrefix(b.id, "j9-") {
		t.Errorf("different content keys share an ID suffix: %q, %q", a.id, b.id)
	}
	other := newJobRegistry(8, retainFinished, clock.NewVirtual())
	c, err := other.create("fp|mode=salsa seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if c.id != "j1-"+strings.TrimPrefix(a.id, "j8-") {
		t.Errorf("equal content keys on two servers: %q vs %q, want equal suffixes", c.id, a.id)
	}
	for _, id := range []string{legacy, a.id, c.id} {
		if !ValidJobID(id) {
			t.Errorf("ValidJobID(%q) = false for an issued ID", id)
		}
	}
	for _, id := range []string{"", "j1", "j1-", "j-1-ab", "j+1-ab", "jx-ab", "x1-ab", "j1-AB", "j1-ab/../metrics", "../metrics"} {
		if ValidJobID(id) {
			t.Errorf("ValidJobID(%q) = true", id)
		}
	}
}

// TestJobRecoveryCrashInCachedSubmit: a cache-served submission's
// acceptance and result share one write. A crash inside it, in either
// frame, costs the client its 202. A crash in the first frame leaves
// no job; one in the second leaves the acceptance alone, and a reboot
// re-runs it to the bytes the cache held. A write that completes makes
// the 202'd job's result durable: after a kill, the reboot serves it
// finished without an engine run.
func TestJobRecoveryCrashInCachedSubmit(t *testing.T) {
	body := allocBody(t, workloads.Figure1(), nil)
	for frame := 0; frame <= 2; frame++ {
		dir := t.TempDir()
		var crashed atomic.Value
		jrn, err := journal.OpenWithHooks(dir, &journal.Hooks{Crash: func(idx int, rec journal.Record, frameLen int) int {
			if idx != frame {
				return -1
			}
			crashed.Store(rec.ID)
			return frameLen / 2
		}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { jrn.Close() })
		e := newTestServer(t, Config{Journal: jrn})
		_, _, sync := e.post(t, "/allocate", body)
		status, _, out := e.post(t, "/jobs", body)
		id, _ := crashed.Load().(string)
		if frame == 2 {
			if status != http.StatusAccepted || id != "" {
				t.Fatalf("uncrashed write: submit answered %d (%s), crash hook fired %t; want a 202", status, out, id != "")
			}
			id = submitResponseID(t, out)
			jrn.Kill(7)
		} else if status != http.StatusServiceUnavailable || id == "" {
			t.Fatalf("crash in frame %d: submit answered %d (%s), crash hook fired %t; want a crash and a 503",
				frame, status, out, id != "")
		}

		e2 := newTestServer(t, Config{Journal: openJournal(t, dir)})
		if n := e2.s.MetricsSnapshot()["jobs_recovered_total"]; n != min(int64(frame), 1) {
			t.Fatalf("crash in frame %d: %d jobs recovered, want %d", frame, n, min(frame, 1))
		}
		if frame == 0 {
			if status, _ := e2.get(t, "/jobs/"+id); status != http.StatusNotFound {
				t.Errorf("crash in the acceptance's frame: job polls %d, want 404", status)
			}
			continue
		}
		var st JobStatus
		waitFor(t, "recovered job terminal", func() bool {
			st, _ = pollStatus(t, e2, id)
			return st.State == jobDone || st.State == jobFailed
		})
		if st.State != jobDone || !st.Recovered || !bytes.Equal(append(st.Result, '\n'), sync) {
			t.Errorf("frame %d: state %s, recovered %t, identical %t; want the cached bytes",
				frame, st.State, st.Recovered, bytes.Equal(append(st.Result, '\n'), sync))
		}
		if runs, want := e2.s.MetricsSnapshot()["engine_invocations_total"], int64(2-frame); runs != want {
			t.Errorf("frame %d: %d engine runs after the reboot, want %d", frame, runs, want)
		}
	}
}

// TestJobsRetireConcurrently: several clients submit and poll
// cache-served jobs while older jobs retire around them. Every
// submission is accepted, every poll serves the cached bytes or 410
// Gone, and afterwards exactly the retained jobs answer 200.
func TestJobsRetireConcurrently(t *testing.T) {
	const clients, perClient, retain = 4, 25, 8
	s := New(Config{Journal: openJournal(t, t.TempDir()), MaxJobs: clients})
	s.jobs = newJobRegistry(clients, retain, s.clock)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	e := &testServer{s: s, ts: ts}
	body := allocBody(t, workloads.Figure1(), nil)
	_, _, want := e.post(t, "/allocate", body)

	ids := make([][]string, clients)
	errs := make(chan error, clients*perClient)
	var wg sync.WaitGroup
	for c := range ids {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var sub struct {
					ID string `json:"id"`
				}
				err = json.NewDecoder(resp.Body).Decode(&sub)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted || err != nil {
					errs <- fmt.Errorf("client %d submission %d: status %d, %v", c, i, resp.StatusCode, err)
					return
				}
				ids[c] = append(ids[c], sub.ID)
				resp, err = http.Get(ts.URL + "/jobs/" + sub.ID)
				if err != nil {
					errs <- err
					return
				}
				var st JobStatus
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusGone:
				case resp.StatusCode != http.StatusOK || err != nil:
					errs <- fmt.Errorf("poll %s: status %d, %v", sub.ID, resp.StatusCode, err)
				case st.State != jobDone || !bytes.Equal(append(st.Result, '\n'), want):
					errs <- fmt.Errorf("poll %s: state %s, result differs from the synchronous body", sub.ID, st.State)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	served := 0
	for _, cids := range ids {
		for _, id := range cids {
			switch status, _ := e.get(t, "/jobs/"+id); status {
			case http.StatusOK:
				served++
			case http.StatusGone:
			default:
				t.Errorf("poll %s after the run: status %d, want 200 or 410", id, status)
			}
		}
	}
	if served != retain {
		t.Errorf("%d jobs still served after the run, want the %d retained", served, retain)
	}
	if m := s.MetricsSnapshot(); m["jobs_finished_total"] != clients*perClient {
		t.Errorf("%d jobs finished, want %d", m["jobs_finished_total"], clients*perClient)
	}
}
