package simtest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"salsa/internal/client"
	"salsa/internal/clock"
	"salsa/internal/cluster"
	"salsa/internal/journal"
	"salsa/internal/service"
)

// ClusterOptions sizes one cluster scenario.
type ClusterOptions struct {
	// Backends is the fleet size. Zero selects 3.
	Backends int
	// Clients and OpsPerClient size the scripted load. Zero selects
	// 4 clients × 5 ops.
	Clients      int
	OpsPerClient int
	// Journal gives every backend a durable job journal on disk and
	// restarts the killed victim WITH its data dir. The death lands at
	// a seeded instant; on a seeded coin (an armed seed) that instant
	// is mid-journal-write: a Crash hook dies partway into the victim's
	// next frame, tearing the segment, and a job submitted straight to
	// the victim guarantees that a frame is written. Otherwise, since
	// the service syncs every append, the kill leaves no unsynced tail
	// to tear. The invariants tighten accordingly: the router must
	// never declare a job lost (`jobs_lost_total == 0`), because the
	// data dir always survives the crash, and an armed seed must tear
	// a frame.
	Journal bool
}

// backendSlot is one switchable backend: a fixed URL whose process can
// "die" (every connection aborted, exactly what a SIGKILLed salsad
// looks like to the router) and come back as a fresh service instance
// with none of its predecessor's caches or jobs.
type backendSlot struct {
	mu   sync.Mutex
	h    http.Handler // guarded by mu
	dead bool         // guarded by mu
}

func (s *backendSlot) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h, dead := s.h, s.dead
	s.mu.Unlock()
	if dead {
		panic(http.ErrAbortHandler)
	}
	h.ServeHTTP(w, r)
}

func (s *backendSlot) set(h http.Handler, dead bool) {
	s.mu.Lock()
	s.h, s.dead = h, dead
	s.mu.Unlock()
}

// RunCluster executes one cluster chaos scenario: scripted clients
// drive a router over opts.Backends salsad instances in virtual time
// while one backend — chosen so it owns at least one scripted
// workload's fingerprint, so its death is visible to the request
// path — is killed mid-traffic and later restarted: empty by default,
// with its journal directory when opts.Journal is set. It reuses
// the single-node scenario's scripts, op runner and invariants
// (clients may not see failures outside the short-deadline budget,
// complete bodies are canonical) and adds the cluster's own:
//
//   - the kill is survived: no scripted op fails because a backend
//     died (failover, journal recovery and resubmission absorb it);
//   - after the restart, probes readmit the backend and one clean
//     request per workload converges to the canonical result through
//     the router;
//   - the router never rejects for want of a backend (the healthy set
//     never reaches zero — only one backend dies);
//   - with Journal: the victim's data dir survives every kill — torn
//     journal tails included — so the router must never declare a job
//     genuinely lost (jobs_lost_total == 0), and an armed seed's kill
//     tears a frame (counted as Injected["journal_tear"]);
//   - the router and every service instance drain cleanly.
func RunCluster(seed int64, opts ClusterOptions) *RunResult {
	if opts.Backends <= 0 {
		opts.Backends = 3
	}
	if opts.Clients <= 0 {
		opts.Clients = 4
	}
	if opts.OpsPerClient <= 0 {
		opts.OpsPerClient = 5
	}
	scenario := "cluster"
	if opts.Journal {
		scenario = "cluster-journal"
	}
	rr := &RunResult{Seed: seed, Scenario: scenario}

	// Seeded chaos parameters, drawn before any construction so the
	// choreography is a pure function of the seed.
	x := uint64(seed)*2862933555777941757 + 41
	next := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 16) % n
	}
	killAfter := time.Duration(20+next(60)) * time.Millisecond
	deadFor := time.Duration(80+next(120)) * time.Millisecond
	// tearBytes seeds where in a frame, or in the unsynced journal
	// tail, the kill lands; armed makes the kill a mid-write crash.
	tearBytes := next(1 << 20)
	armed := opts.Journal && next(2) == 0

	clk := clock.NewVirtual()
	// victimSlot aims the Crash hook: journals are built before the
	// ring placement (and hence the victim) is known, so every
	// backend's hook consults this and only the victim's ever fires,
	// once tearing is set at the kill. tears counts the torn frames.
	var victimSlot atomic.Int32
	victimSlot.Store(-1)
	var tearing atomic.Bool
	var tears atomic.Int64
	hooksFor := func(slot int) *journal.Hooks {
		if !armed {
			return nil
		}
		return &journal.Hooks{Crash: func(_ int, _ journal.Record, frameLen int) int {
			if int32(slot) != victimSlot.Load() || !tearing.Load() {
				return -1
			}
			tears.Add(1)
			return int(tearBytes % uint64(frameLen+1))
		}}
	}

	newBackend := func(jrn *journal.Journal) *service.Server {
		return service.New(service.Config{
			MaxConcurrent:  2,
			MaxQueue:       32,
			MaxJobs:        256,
			DefaultTimeout: time.Minute,
			MaxTimeout:     2 * time.Minute,
			Journal:        jrn,
			Hooks:          &service.Hooks{Clock: clk},
		})
	}
	// Every service instance ever attached to a slot, restarted
	// replacements included: all must drain at the end. Journals
	// likewise, for closing.
	var services []*service.Server
	var journals []*journal.Journal
	slots := make([]*backendSlot, opts.Backends)
	urls := make([]string, opts.Backends)
	dirs := make([]string, opts.Backends)
	for i := range slots {
		var jrn *journal.Journal
		if opts.Journal {
			dir, err := os.MkdirTemp("", "salsa-wal-")
			if err != nil {
				rr.Violations = append(rr.Violations, "journal dir: "+err.Error())
				return rr
			}
			dirs[i] = dir
			defer os.RemoveAll(dir)
			jrn, err = journal.OpenWithHooks(dir, hooksFor(i))
			if err != nil {
				rr.Violations = append(rr.Violations, "journal open: "+err.Error())
				return rr
			}
			journals = append(journals, jrn)
		}
		svc := newBackend(jrn)
		services = append(services, svc)
		slots[i] = &backendSlot{h: svc.Handler()}
		ts := httptest.NewServer(slots[i])
		defer ts.Close()
		urls[i] = ts.URL
	}
	defer func() {
		for _, jrn := range journals {
			_ = jrn.Close()
		}
	}()

	router, err := cluster.New(cluster.Config{
		Backends:      urls,
		Clock:         clk,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  100 * time.Millisecond,
		FailAfter:     2,
		ProxyAttempts: 2,
		ProxyBackoff:  5 * time.Millisecond,
		Seed:          seed,
	})
	if err != nil {
		rr.Violations = append(rr.Violations, "router: "+err.Error())
		return rr
	}
	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	router.Start(probeCtx)
	front := httptest.NewServer(router.Handler())
	defer front.Close()
	stopPump := clk.AutoAdvance(500 * time.Microsecond)
	defer stopPump()

	// The victim owns figure1's fingerprint, so its death re-homes keys
	// the scripts actually use. Derived at runtime because ring
	// placement depends on the listeners' ephemeral ports.
	victim := -1
	owner, _ := router.Owner(workloadFingerprint("figure1"))
	for i, u := range urls {
		if u == owner {
			victim = i
		}
	}
	if victim < 0 {
		rr.Violations = append(rr.Violations, "victim selection: no slot owns figure1")
		return rr
	}
	victimSlot.Store(int32(victim))

	// chaosErr carries restart failures out of the goroutine; read
	// after chaos.Wait.
	var chaosErr string
	var replacement *service.Server
	var chaos sync.WaitGroup
	chaos.Add(1)
	// Kill/restart choreography, timed in virtual milliseconds off the
	// seed: die mid-traffic (mid-journal-write on an armed seed), stay
	// dead long enough for probes to demote (2 × 20ms), come back —
	// empty by default, with the data dir under opts.Journal.
	go func() {
		defer chaos.Done()
		// Background is deliberate: the choreography always completes —
		// a scenario must never end with the victim still dead.
		_ = clk.Sleep(context.Background(), killAfter)
		if armed {
			// The crash tears the victim's next frame, whichever append
			// writes it; this job's acceptance is certain to be one.
			tearing.Store(true)
			body, err := json.Marshal(request(Op{Kind: OpAsync, Workload: "figure1"}))
			if err != nil {
				panic("simtest: encoding the crash's job: " + err.Error())
			}
			req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
			slots[victim].ServeHTTP(httptest.NewRecorder(), req)
		}
		slots[victim].set(nil, true)
		if opts.Journal {
			// SIGKILL semantics for the disk: no further writes, and
			// the unsynced tail survives only up to a seeded byte
			// offset (idempotent if the crash hook already tore it).
			journals[victim].Kill(tearBytes)
		}
		_ = clk.Sleep(context.Background(), deadFor)
		var jrn *journal.Journal
		if opts.Journal {
			// The restart replays the victim's own directory — the
			// "restart with disk" under test. No crash hooks: the
			// replacement lives to the end of the scenario.
			var err error
			jrn, err = journal.Open(dirs[victim])
			if err != nil {
				chaosErr = "victim restart: " + err.Error()
				return
			}
			journals = append(journals, jrn)
		}
		replacement = newBackend(jrn)
		slots[victim].set(replacement.Handler(), false)
		services = append(services, replacement)
	}()

	newClient := func(jitterSeed int64) *client.Client {
		return client.New(client.Config{
			BaseURL:      front.URL,
			Doer:         front.Client(),
			Clock:        clk,
			Seed:         jitterSeed,
			MaxAttempts:  10,
			BaseBackoff:  20 * time.Millisecond,
			MaxBackoff:   500 * time.Millisecond,
			PollInterval: 10 * time.Millisecond,
		})
	}

	scripts := BuildScripts(seed, opts.Clients, opts.OpsPerClient)
	type clientOut struct {
		events     []Event
		violations []string
	}
	outs := make([]clientOut, len(scripts))
	var wg sync.WaitGroup
	for i, sc := range scripts {
		wg.Add(1)
		go func(i int, sc Script) {
			defer wg.Done()
			cl := newClient(sc.Seed)
			for opIdx, op := range sc.Ops {
				ev, bad := runOp(clk, cl, seed, sc.Client, opIdx, op)
				outs[i].events = append(outs[i].events, ev)
				outs[i].violations = append(outs[i].violations, bad...)
			}
		}(i, sc)
	}
	wg.Wait()
	chaos.Wait()
	if chaosErr != "" {
		rr.Violations = append(rr.Violations, chaosErr)
	}
	if armed {
		rr.Injected = map[string]int64{"journal_tear": tears.Load()}
		if tears.Load() == 0 {
			rr.Violations = append(rr.Violations, "the armed journal crash tore no frame")
		}
	}
	used := map[string]bool{}
	for i := range outs {
		rr.Events = append(rr.Events, outs[i].events...)
		rr.Violations = append(rr.Violations, outs[i].violations...)
	}
	for _, sc := range scripts {
		for _, op := range sc.Ops {
			used[op.Workload] = true
		}
	}

	// Recovery: probes must readmit the restarted backend. Virtual time
	// free-runs under the pump, so poll briefly in real time.
	for deadline := time.Now().Add(10 * time.Second); len(router.Healthy()) != opts.Backends; {
		if time.Now().After(deadline) {
			rr.Violations = append(rr.Violations,
				fmt.Sprintf("restarted backend never readmitted: healthy=%v", router.Healthy()))
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Convergence through the router: the restarted backend serves its
	// re-adopted keys from scratch and results stay canonical.
	conv := newClient(seed ^ 0x7c7c)
	for _, w := range sortedKeys(used) {
		res, err := conv.Do(context.Background(), request(Op{Kind: OpSync, Workload: w}))
		switch {
		case err != nil:
			rr.Violations = append(rr.Violations, fmt.Sprintf("convergence: %s failed: %v", w, err))
		case res.Result.Partial:
			rr.Violations = append(rr.Violations, fmt.Sprintf("convergence: %s partial without a fault plane", w))
		case !bytes.Equal(canonicalJSON(res.Body), expectedBody(w)):
			rr.Violations = append(rr.Violations, fmt.Sprintf("convergence: %s diverges from direct salsa.Execute", w))
		}
	}

	// Drain: router first (stop admitting), then every service instance
	// this scenario ever created.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := router.Drain(drainCtx); err != nil {
		rr.Violations = append(rr.Violations, "router drain: "+err.Error())
	}
	for i, svc := range services {
		if err := svc.Drain(drainCtx); err != nil {
			rr.Violations = append(rr.Violations, fmt.Sprintf("backend %d drain: %v", i, err))
		}
	}

	rr.Metrics = router.MetricsSnapshot()
	if rr.Metrics["no_backend_total"] != 0 {
		rr.Violations = append(rr.Violations,
			fmt.Sprintf("router saw an empty healthy ring %d times with only one backend dead",
				rr.Metrics["no_backend_total"]))
	}
	if rr.Metrics["requests_total"] == 0 {
		rr.Violations = append(rr.Violations, "router served no requests")
	}
	if opts.Journal {
		// The tightened loss invariant: the victim's data dir survived
		// the kill (that is the scenario), so the router must never have
		// proven a job genuinely lost — any job it could not serve had
		// to stay retryable until the journal brought it back.
		if rr.Metrics["jobs_lost_total"] != 0 {
			rr.Violations = append(rr.Violations, fmt.Sprintf(
				"router declared %d jobs lost although the journal directory survived the kill",
				rr.Metrics["jobs_lost_total"]))
		}
		if replacement != nil {
			rr.Metrics["victim_jobs_recovered_total"] = replacement.MetricsSnapshot()["jobs_recovered_total"]
		}
	}
	return rr
}

// workloadFingerprint computes the routing key of one script workload.
func workloadFingerprint(w string) string {
	fp, _, err := request(Op{Kind: OpSync, Workload: w}).ContentKey()
	if err != nil {
		panic("simtest: fingerprinting " + w + ": " + err.Error())
	}
	return fp
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
