package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"salsa/internal/cluster"
	"salsa/internal/journal"
	"salsa/internal/service"
)

// options are one workload run's parameters.
type options struct {
	seed  int64
	timed time.Duration // length of the timed phase
	// minOps extends the timed phase until that many ops completed, so
	// a slow machine still gets the samples p99 needs.
	minOps int
	setups int // setup_s is the median of this many setups
	trace  bool
}

// maxJobs caps the job registry of jobs-durable's salsad. The registry
// never retires finished jobs, so salsad's default of 1024 would turn
// the rest of the run into 429s; no timed phase submits this many.
const maxJobs = 1 << 20

// minReplays is how many replays the verification pass makes: enough
// for a per-layer median even on warm-repeat's 16-key hot set.
const minReplays = 32

// samplePerGraph is how many served keys per graph the verification
// pass replays.
const samplePerGraph = 4

// bench is one booted workload, ready for its timed phase.
type bench struct {
	w       workload
	seed    int64
	corpus  []graphEntry
	plan    plan
	bodies  map[key][]byte // wire request per key of the plan's key space
	env     *env
	clients []*client
	gate    *gate

	mu sync.Mutex
	// Client-observed POST /allocate latencies outside the timed phase,
	// by cache outcome.
	hits, misses hist // guarded by mu
}

// setup does everything before the first timed request: load the
// corpus, render the key space's requests, boot the components and
// prewarm them.
func setup(w workload, corpusDir string, opts options) (*bench, error) {
	corpus, err := loadCorpus(corpusDir)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, seed: opts.seed, corpus: corpus, plan: w.plan(opts.seed, len(corpus)), gate: newGate(corpus)}
	b.bodies = make(map[key][]byte, len(b.plan.keys))
	for _, k := range b.plan.keys {
		if b.bodies[k], err = requestBody(corpus, k); err != nil {
			return nil, err
		}
	}
	if b.env, err = boot(w); err != nil {
		return nil, err
	}
	for i := 0; i < w.clients; i++ {
		b.clients = append(b.clients, newClient())
	}
	if err := b.prewarm(); err != nil {
		_ = b.close()
		return nil, fmt.Errorf("prewarm: %w", err)
	}
	return b, nil
}

// close shuts the components down and drops the clients' connections.
func (b *bench) close() error {
	err := b.env.close()
	for _, c := range b.clients {
		c.tr.CloseIdleConnections()
	}
	return err
}

// prewarm sends every graph with each of the workload's prewarm seeds
// through the clients, filling caches and keep-alive connections.
func (b *bench) prewarm() error {
	return b.fetchAll(everyGraph(len(b.corpus), b.w.prewarm))
}

// fill sends every key of the key space once, least popular first, so
// that the caches end up holding the most popular keys.
func (b *bench) fill() error {
	keys := make([]key, len(b.plan.keys))
	for i, k := range b.plan.keys {
		keys[len(keys)-1-i] = k
	}
	return b.fetchAll(keys)
}

// body returns the wire request for k: pre-rendered for a key of the
// key space, rendered now for any other.
func (b *bench) body(k key) ([]byte, error) {
	if body, ok := b.bodies[k]; ok {
		return body, nil
	}
	return requestBody(b.corpus, k)
}

// fetchAll sends each key once, spread over the clients.
func (b *bench) fetchAll(keys []key) error {
	var next atomic.Int64
	errs := make([]error, len(b.clients))
	var wg sync.WaitGroup
	for ci, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(keys)) {
					return
				}
				body, err := b.body(keys[i])
				if err == nil {
					err = b.fetch(c, keys[i], body)
				}
				if err != nil {
					errs[ci] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fetch sends one POST /allocate to the workload's entry point outside
// the timed phase, checks the answer and records its latency.
func (b *bench) fetch(c *client, k key, body []byte) error {
	t0 := time.Now()
	rep, err := c.do(http.MethodPost, b.env.base+"/allocate", body)
	lat := time.Since(t0)
	if err != nil {
		return err
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("POST /allocate: status %d: %s", rep.status, rep.body)
	}
	if err := b.gate.observe(k, rep.body, true); err != nil {
		return err
	}
	b.mu.Lock()
	if rep.cache == "hit" {
		b.hits.add(lat)
	} else {
		b.misses.add(lat)
	}
	b.mu.Unlock()
	return nil
}

// Cache outcomes of a timed op, from X-Salsa-Cache.
const (
	cacheUnknown = iota // job ops carry no cache header
	cacheHit
	cacheMiss
)

// opRec is one timed-phase op as its client saw it.
type opRec struct {
	lat   time.Duration
	ok    bool
	cache uint8
	// routerHit marks an answer from the router's own cache, proxied one
	// that a backend gave through the router (from X-Salsa-Shard).
	routerHit, proxied bool
	polls              int
}

// tally aggregates timed ops in fixed space. The load generator shares
// the garbage-collected heap with the servers it measures, so its
// memory must not grow with the number of ops. Latencies are those of
// successful ops only: a fast refusal must not improve them.
type tally struct {
	lat        hist // every successful op
	hit, miss  hist // successful POST /allocate ops by cache outcome
	routerHit  hist // hits from the router's cache
	proxied    hist // hits a backend served through the router
	ok, failed int
	polls      int
	failures   []string // the first few failed ops
}

func (t *tally) add(r opRec, err error) {
	t.polls += r.polls
	if !r.ok {
		t.failed++
		if err != nil && len(t.failures) < maxProblems {
			t.failures = append(t.failures, err.Error())
		}
		return
	}
	t.ok++
	t.lat.add(r.lat)
	switch r.cache {
	case cacheHit:
		t.hit.add(r.lat)
		if r.routerHit {
			t.routerHit.add(r.lat)
		}
		if r.proxied {
			t.proxied.add(r.lat)
		}
	case cacheMiss:
		t.miss.add(r.lat)
	}
}

func (t *tally) merge(o *tally) {
	t.lat.merge(&o.lat)
	t.hit.merge(&o.hit)
	t.miss.merge(&o.miss)
	t.routerHit.merge(&o.routerHit)
	t.proxied.merge(&o.proxied)
	t.ok += o.ok
	t.failed += o.failed
	t.polls += o.polls
	t.failures = append(t.failures, o.failures...)
}

// timedLog is the timed phase's outcome.
type timedLog struct {
	tally
	tails tailWindows
	wall  time.Duration
}

// drive runs the timed phase. Each client draws the plan's next request
// as soon as its previous op completed (a closed loop, with no
// retries), until the phase's time is over and at least minOps ops
// completed. Successful latencies also go to the tail windows, in the
// order the ops completed.
func (b *bench) drive(opts options, tr *tracer) *timedLog {
	var draw sync.Mutex
	var done atomic.Int64
	tl := new(timedLog)
	tallies := make([]*tally, len(b.clients))
	start := time.Now()
	deadline := start.Add(opts.timed)
	var wg sync.WaitGroup
	for ci, c := range b.clients {
		t := new(tally)
		tallies[ci] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			tb := tr.buffer()
			for {
				if time.Now().After(deadline) && done.Load() >= int64(opts.minOps) {
					return
				}
				draw.Lock()
				k := b.plan.next()
				draw.Unlock()
				r, err := b.op(c, tb, k)
				t.add(r, err)
				if r.ok {
					tl.tails.add(r.lat)
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	tl.wall = time.Since(start)
	for _, ct := range tallies {
		tl.merge(ct)
	}
	return tl
}

func (b *bench) op(c *client, tb *traceBuf, k key) (opRec, error) {
	wire, err := b.body(k)
	if err != nil {
		return opRec{}, err
	}
	if b.w.jobs {
		return b.jobOp(c, tb, k, wire)
	}
	return b.allocOp(c, tb, k, wire)
}

// allocOp is one POST /allocate.
func (b *bench) allocOp(c *client, tb *traceBuf, k key, wire []byte) (opRec, error) {
	root := tb.begin(noSpan, "op")
	defer tb.finish(root)
	t0 := time.Now()
	rep, err := c.do(http.MethodPost, b.env.base+"/allocate", wire)
	t1 := time.Now()
	tb.exchange(root, "http.allocate", t0, t1, rep)
	rec := opRec{lat: t1.Sub(t0), cache: cacheMiss, routerHit: rep.shard == "router", proxied: rep.shard != "" && rep.shard != "router"}
	if rep.cache == "hit" {
		rec.cache = cacheHit
	}
	switch {
	case err != nil:
		return rec, err
	case rep.status != http.StatusOK:
		return rec, fmt.Errorf("POST /allocate: status %d: %s", rep.status, rep.body)
	}
	if err := b.gate.observe(k, rep.body, true); err != nil {
		return rec, err
	}
	rec.ok = true
	return rec, nil
}

// jobPollLimit bounds how long an op polls a job: salsad's default
// search deadline.
const jobPollLimit = 30 * time.Second

// jobOp is one POST /jobs followed by GET /jobs/{id} polls, 1 ms apart,
// until the job is terminal.
func (b *bench) jobOp(c *client, tb *traceBuf, k key, wire []byte) (opRec, error) {
	root := tb.begin(noSpan, "op")
	defer tb.finish(root)
	t0 := time.Now()
	rep, err := c.do(http.MethodPost, b.env.base+"/jobs", wire)
	tb.exchange(root, "http.submit", t0, time.Now(), rep)
	var rec opRec
	if err == nil && rep.status != http.StatusAccepted {
		err = fmt.Errorf("POST /jobs: status %d: %s", rep.status, rep.body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err == nil {
		err = json.Unmarshal(rep.body, &sub)
	}
	var st service.JobStatus
	for err == nil {
		p0 := time.Now()
		rep, err = c.do(http.MethodGet, b.env.base+"/jobs/"+sub.ID, nil)
		tb.exchange(root, "http.poll", p0, time.Now(), rep)
		rec.polls++
		switch {
		case err != nil:
		case rep.status != http.StatusOK:
			err = fmt.Errorf("GET /jobs/%s: status %d: %s", sub.ID, rep.status, rep.body)
		default:
			err = json.Unmarshal(rep.body, &st)
		}
		if err != nil || st.State == "done" || st.State == "failed" {
			break
		}
		if time.Since(t0) > jobPollLimit {
			err = fmt.Errorf("job %s still %s after %s", sub.ID, st.State, jobPollLimit)
			break
		}
		time.Sleep(time.Millisecond)
	}
	rec.lat = time.Since(t0)
	switch {
	case err != nil:
		return rec, err
	case st.State != "done" || st.HTTPStatus != http.StatusOK:
		return rec, fmt.Errorf("job %s ended %s with status %d: %s", sub.ID, st.State, st.HTTPStatus, st.Error)
	}
	if err := b.gate.observe(k, st.Result, false); err != nil {
		return rec, err
	}
	rec.ok = true
	return rec, nil
}

// sample picks the keys the verification pass replays: per graph, the
// first samplePerGraph distinct keys among the sent requests that were
// served. It draws the sent requests again from a fresh stream of the
// same seed. For a given seed that is the same set in every run long
// enough to serve it.
func (b *bench) sample(sent int) []key {
	p := b.w.plan(b.seed, len(b.corpus))
	taken := make(map[key]bool)
	perGraph := make([]int, len(b.corpus))
	var out []key
	for i := 0; i < sent && len(out) < samplePerGraph*len(b.corpus); i++ {
		k := p.next()
		if !taken[k] && perGraph[k.graph] < samplePerGraph && b.gate.served(k) != nil {
			taken[k] = true
			perGraph[k.graph]++
			out = append(out, k)
		}
	}
	return out
}

// verifyLog is what the verification pass measured.
type verifyLog struct {
	replays                               int
	run                                   time.Duration // engine.run time summed over replays
	jobs, pruned, trials, moves, accepted int
}

// verify is the correctness gate's second half. It replays the sample
// (cycling through it until minReplays replays), and for each replay
// requires the served body to equal the direct run's, Binding.Check and
// Design.Verify to pass, and the request sent twice more to be answered
// byte-identically, the second time from the cache; on routed-zipf the
// owning shard must answer the same bytes when asked directly. On
// jobs-durable each replay journals the job's Accepted and Result
// records into a scratch journal, as salsad does for a job that hits
// the cache.
func (b *bench) verify(sample []key, tb *traceBuf) (*verifyLog, error) {
	v := &verifyLog{}
	if len(sample) == 0 {
		return v, errors.New("the timed phase served no request to verify")
	}
	c := b.clients[0]
	var ring *cluster.Ring
	if b.env.router != nil {
		ring = cluster.NewRing(b.env.names, 0)
	}
	var jrn *journal.Journal
	if b.w.jobs {
		dir, err := os.MkdirTemp("", "salsabench-scratch-")
		if err != nil {
			return v, err
		}
		defer os.RemoveAll(dir)
		if jrn, err = journal.Open(dir); err != nil {
			return v, err
		}
		defer jrn.Close()
	}
	for i := 0; i < max(minReplays, len(sample)); i++ {
		k := sample[i%len(sample)]
		wire, err := b.body(k)
		if err != nil {
			return v, err
		}
		r, root, err := replay(tb, wire)
		if err == nil && ring != nil {
			err = b.direct(c, tb, root, ring, k, wire, r.fingerprint)
		}
		if err == nil && jrn != nil {
			err = journalJob(tb, root, jrn, fmt.Sprintf("r%d", i), wire, r.body)
		}
		tb.finish(root)
		if err != nil {
			b.gate.problem(k, "replay: "+err.Error())
			continue
		}
		v.replays++
		v.run += r.run
		v.jobs += r.stats.Jobs
		v.pruned += r.stats.Pruned
		v.trials += r.stats.Trials
		v.moves += r.stats.MovesTried
		v.accepted += r.stats.MovesAccepted
		// The gate keeps its own record; errors here are counted there.
		_ = b.gate.verify(k, r.body)
		if err := r.des.Verify(r.res); err != nil {
			b.gate.problem(k, "simulation disagrees with the reference semantics: "+err.Error())
		}
		// Twice: the first is a miss when the key has left the cache
		// since the timed phase, the second then a hit.
		for j := 0; j < 2; j++ {
			if err := b.fetch(c, k, wire); err != nil {
				b.gate.problem(k, "repeated request: "+err.Error())
			}
		}
	}
	return v, nil
}

// direct sends k straight to the shard that owns it, twice, and hands
// the answers to the gate.
func (b *bench) direct(c *client, tb *traceBuf, root spanRef, ring *cluster.Ring, k key, wire []byte, fingerprint string) error {
	t0 := time.Now()
	owner, ok := ring.Owner(fingerprint)
	tb.span(root, "cluster.owner", t0, time.Now())
	if !ok {
		return errors.New("empty ring")
	}
	for j := 0; j < 2; j++ {
		t0 := time.Now()
		rep, err := c.do(http.MethodPost, b.env.shardURL[owner]+"/allocate", wire)
		tb.exchange(root, "http.direct", t0, time.Now(), rep)
		if err != nil {
			return err
		}
		if rep.status != http.StatusOK {
			return fmt.Errorf("POST %s/allocate: status %d: %s", owner, rep.status, rep.body)
		}
		// A mismatch is the gate's to count.
		_ = b.gate.observe(k, rep.body, true)
	}
	return nil
}

// jobRecords are the records salsad journals, fsynced, before it
// answers 202 for a job that hits the cache: its acceptance and its
// result.
func jobRecords(id string, wire, body []byte) ([]journal.Record, error) {
	var ar service.AllocateRequest
	if err := json.Unmarshal(wire, &ar); err != nil {
		return nil, err
	}
	_, ckey, err := ar.ContentKey()
	if err != nil {
		return nil, err
	}
	return []journal.Record{journal.Accepted(id, wire, ckey), journal.Result(id, http.StatusOK, body, true, 0)}, nil
}

// journalJob appends a job's records to jrn, one journal.append span
// each.
func journalJob(tb *traceBuf, root spanRef, jrn *journal.Journal, id string, wire, body []byte) error {
	recs, err := jobRecords(id, wire, body)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		sp := tb.begin(root, "journal.append")
		err := jrn.Append(rec, true)
		tb.finish(sp)
		if err != nil {
			return err
		}
	}
	return nil
}
