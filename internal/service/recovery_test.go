package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
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

// TestJobIDs: a fresh job's ID carries the SHA-256 of its content key,
// so equal keys give equal ID suffixes and different keys different
// ones; an ID of the older "jN-<fingerprint prefix>" form, as journals
// written by earlier versions hold, still restores and advances the
// sequence, but is not content-keyed.
func TestJobIDs(t *testing.T) {
	r := newJobRegistry(8, clock.NewVirtual())
	const legacy = "j7-3c62da355d7c"
	if _, ok := r.restore(legacy); !ok {
		t.Fatalf("restore(%q) refused", legacy)
	}
	if ContentKeyedJobID(legacy) {
		t.Errorf("%q reported content-keyed", legacy)
	}
	a, err := r.create("fp|mode=salsa seed=1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.create("fp|mode=salsa seed=2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(a.id, "j8-") || !ContentKeyedJobID(a.id) || !ContentKeyedJobID(b.id) {
		t.Fatalf("fresh IDs %q, %q: want j8-… and content-keyed", a.id, b.id)
	}
	if strings.TrimPrefix(a.id, "j8-") == strings.TrimPrefix(b.id, "j9-") {
		t.Errorf("different content keys share an ID suffix: %q, %q", a.id, b.id)
	}
	other := newJobRegistry(8, clock.NewVirtual())
	c, err := other.create("fp|mode=salsa seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if c.id != "j1-"+strings.TrimPrefix(a.id, "j8-") {
		t.Errorf("equal content keys on two servers: %q vs %q, want equal suffixes", c.id, a.id)
	}
}
