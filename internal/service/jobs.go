package service

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"salsa/internal/clock"
	"salsa/internal/engine"
)

// Job states, as reported by GET /jobs/{id}.
const (
	jobQueued  = "queued"
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

// JobProgress is the live search progress of an async job, fed by the
// engine's telemetry events while the job leads an engine run. A job
// that was deduplicated onto another identical in-flight run (or served
// from the cache) completes without per-trial progress; Merged marks
// that case.
type JobProgress struct {
	PortfolioJobsStarted  int  `json:"portfolio_jobs_started"`
	PortfolioJobsFinished int  `json:"portfolio_jobs_finished"`
	Improvements          int  `json:"improvements"`
	BestCost              int  `json:"best_cost"`
	LastTrial             int  `json:"last_trial"`
	Merged                bool `json:"merged,omitempty"`
}

// JobStatus is the wire form of one async job.
type JobStatus struct {
	ID       string      `json:"id"`
	State    string      `json:"state"`
	Progress JobProgress `json:"progress"`
	// HTTPStatus and Result carry the terminal outcome once State is
	// done or failed: the status code and body a synchronous /allocate
	// of the same request would have produced.
	HTTPStatus int             `json:"http_status,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	Error      string          `json:"error,omitempty"`
	// ElapsedMS is the job's age (terminal jobs: creation to finish;
	// live jobs: creation to now), measured on the server's clock — a
	// virtual clock under the simulation harness. A terminal job
	// recovered from the journal keeps the elapsed time frozen at its
	// original completion: the restart does not age the answer.
	ElapsedMS int64 `json:"elapsed_ms"`
	// Recovered marks a job replayed from the write-ahead journal after
	// a restart (terminal jobs byte-identically, in-flight jobs by
	// re-running the allocation).
	Recovered bool `json:"recovered,omitempty"`
}

// job is the registry's mutable record of one async submission.
type job struct {
	mu        sync.Mutex
	id        string      // immutable after creation
	clk       clock.Clock // immutable after creation
	created   time.Time   // immutable after creation
	recovered bool        // immutable after creation; replayed from the journal
	state     string      // guarded by mu
	progress  JobProgress // guarded by mu
	status    int         // guarded by mu
	body      []byte      // guarded by mu
	finished  time.Time   // guarded by mu; zero until terminal
	// frozenMS pins elapsed_ms for journal-recovered terminal jobs (the
	// original completion's elapsed time, not this process's uptime).
	frozenMS int64 // guarded by mu
	frozen   bool  // guarded by mu
}

// engineEvent folds one engine telemetry event into the job's progress.
// It is the engine's Events callback, so invocations are serialized.
// Events arriving after the job reached a terminal state are dropped:
// a finished job's progress is part of its terminal outcome and must
// never change afterwards (a stale engine callback racing finish would
// otherwise mutate it).
func (j *job) engineEvent(ev engine.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == jobDone || j.state == jobFailed {
		return
	}
	switch ev.Kind {
	case engine.EventJobStarted:
		j.progress.PortfolioJobsStarted++
	case engine.EventImproved:
		j.progress.Improvements++
		j.progress.BestCost = ev.Cost
		j.progress.LastTrial = ev.Trial
	case engine.EventJobFinished:
		j.progress.PortfolioJobsFinished++
	}
}

func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
}

// finish records the terminal outcome. merged marks completion via a
// cache hit or a shared singleflight run rather than an own engine run.
func (j *job) finish(status int, body []byte, merged bool) {
	j.finishAt(j.clk.Now(), status, body, merged)
}

// finishAt is finish with the completion instant supplied by the
// caller, so the journaled elapsed time and the served elapsed time
// come from one clock reading and can never disagree.
func (j *job) finishAt(now time.Time, status int, body []byte, merged bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = status
	j.body = body
	j.progress.Merged = merged
	j.finished = now
	if status == 200 {
		j.state = jobDone
	} else {
		j.state = jobFailed
	}
}

// restoreTerminal replays a journaled terminal outcome: the exact
// status and body the pre-crash process acknowledged, with elapsed_ms
// frozen at the original completion.
func (j *job) restoreTerminal(status int, body []byte, merged bool, elapsedMS int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = status
	j.body = body
	j.progress.Merged = merged
	j.finished = j.created
	j.frozenMS = elapsedMS
	j.frozen = true
	if status == 200 {
		j.state = jobDone
	} else {
		j.state = jobFailed
	}
}

// restoreProgress replays the last journaled checkpoint so a poll
// during the recovery re-run shows the pre-crash progress instead of
// zeros. Best effort: an undecodable snapshot is ignored.
func (j *job) restoreProgress(snapshot []byte) {
	var p JobProgress
	if json.Unmarshal(snapshot, &p) != nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == jobQueued || j.state == jobRunning {
		j.progress = p
	}
}

// progressSnapshot marshals the live progress for a journal
// checkpoint; ok is false once the job is terminal (its progress is
// then part of the terminal outcome, checkpointed by the Result
// record).
func (j *job) progressSnapshot() (snap []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == jobDone || j.state == jobFailed {
		return nil, false
	}
	snap, err := json.Marshal(j.progress)
	if err != nil {
		return nil, false
	}
	return snap, true
}

// statusJSON snapshots the job as its wire form.
func (j *job) statusJSON() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, State: j.state, Progress: j.progress, Recovered: j.recovered}
	end := j.finished
	if end.IsZero() {
		end = j.clk.Now()
	}
	st.ElapsedMS = end.Sub(j.created).Milliseconds()
	if j.frozen {
		st.ElapsedMS = j.frozenMS
	}
	if j.state == jobDone {
		st.HTTPStatus = j.status
		st.Result = json.RawMessage(j.body)
	} else if j.state == jobFailed {
		st.HTTPStatus = j.status
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(j.body, &e) == nil {
			st.Error = e.Error
		}
	}
	return st
}

// jobRegistry tracks async jobs by ID. Entries are kept for the
// process lifetime, bounded by maxJobs: submissions beyond the bound
// are rejected so the registry cannot grow without limit.
type jobRegistry struct {
	mu      sync.Mutex
	jobs    map[string]*job // guarded by mu
	seq     int             // guarded by mu
	maxJobs int             // immutable after construction
	clk     clock.Clock     // immutable after construction
}

func newJobRegistry(maxJobs int, clk clock.Clock) *jobRegistry {
	return &jobRegistry{jobs: make(map[string]*job), maxJobs: maxJobs, clk: clk}
}

// create registers a fresh queued job for the request with the given
// content key (allocSpec.key). The ID is a per-process sequence number
// plus the SHA-256 of the key, so two jobs sharing an ID — even on
// different servers — are the same normalized request and finish with
// byte-identical results.
func (r *jobRegistry) create(key string) (*job, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.jobs) >= r.maxJobs {
		return nil, fmt.Errorf("job registry full (%d jobs)", r.maxJobs)
	}
	r.seq++
	sum := sha256.Sum256([]byte(key))
	j := &job{id: fmt.Sprintf("j%d-%x", r.seq, sum), clk: r.clk, created: r.clk.Now(), state: jobQueued}
	r.jobs[j.id] = j
	return j, nil
}

// restore registers a journal-replayed job under its original ID (the
// ID a client already holds and will poll). The sequence counter jumps
// past the replayed ID's so fresh submissions cannot collide with
// recovered ones. ok is false when the registry is full or the ID is
// already present (a duplicate in a corrupt journal).
func (r *jobRegistry) restore(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.jobs) >= r.maxJobs {
		return nil, false
	}
	if _, exists := r.jobs[id]; exists {
		return nil, false
	}
	if seq, _, ok := splitJobID(id); ok && seq > r.seq {
		r.seq = seq
	}
	j := &job{id: id, clk: r.clk, created: r.clk.Now(), state: jobQueued, recovered: true}
	r.jobs[id] = j
	return j, true
}

// remove deletes a job — the unwind when its acceptance could not be
// journaled (the 202 was never sent) or its journal entry is not
// replayable.
func (r *jobRegistry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.jobs, id)
}

// ValidJobID reports whether id has the form of a job ID a service
// issues, "jN-" plus lowercase hex digits: a content-keyed ID, or an
// older-form one a journal written by an earlier version may still
// hold. No other string can name a job.
func ValidJobID(id string) bool {
	_, _, ok := splitJobID(id)
	return ok
}

// ContentKeyedJobID reports whether id has the form create issues,
// "jN-" plus the 64 hex digits of the content key's SHA-256. Journals
// written by earlier versions may still hold "jN-<fingerprint prefix>"
// IDs, which are unique only within one process and name no request.
func ContentKeyedJobID(id string) bool {
	_, sum, ok := splitJobID(id)
	return ok && len(sum) == 2*sha256.Size
}

// splitJobID splits a "jN-<hex>" job ID into N and the hex suffix.
func splitJobID(id string) (seq int, sum string, ok bool) {
	rest, ok := strings.CutPrefix(id, "j")
	if !ok {
		return 0, "", false
	}
	num, sum, ok := strings.Cut(rest, "-")
	if !ok || sum == "" || strings.Trim(sum, "0123456789abcdef") != "" {
		return 0, "", false
	}
	n, err := strconv.ParseUint(num, 10, strconv.IntSize-1)
	if err != nil {
		return 0, "", false
	}
	return int(n), sum, true
}

func (r *jobRegistry) get(id string) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id]
}
