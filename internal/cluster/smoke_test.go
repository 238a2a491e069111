package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"salsa"
	"salsa/internal/cdfg"
	"salsa/internal/client"
	"salsa/internal/service"
	"salsa/internal/workloads"
)

// TestClusterSmoke drives 200 mixed sync/async requests through a
// 3-backend cluster and kills one backend halfway through. The
// contract under test is the package's core promise: a dying backend
// costs latency, never an answer — zero client-visible failures, and
// every completed body byte-identical to a direct salsa.Execute of the
// same request.
//
// By default the cluster is in-process (three service instances behind
// a Router); when SALSA_ROUTER_URL is set (CI boots real salsad
// processes) it targets that router instead, and the mid-run kill is a
// real SIGKILL. SALSA_CLUSTER_PIDS maps backend URL to process ID
// ("http://…=pid,…"); the victim is whichever backend the ring says
// owns figure1's fingerprint, so the kill always lands on a shard the
// traffic actually uses.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test is load-shaped; skipped in -short")
	}
	base := os.Getenv("SALSA_ROUTER_URL")
	var kill func()
	var router *Router
	if base == "" {
		var backends []*httptest.Server
		var urls []string
		for i := 0; i < 3; i++ {
			svc := service.New(service.Config{MaxConcurrent: 2, MaxQueue: 128, MaxJobs: 256})
			ts := httptest.NewServer(svc.Handler())
			t.Cleanup(ts.Close)
			backends = append(backends, ts)
			urls = append(urls, ts.URL)
		}
		r, err := New(Config{
			Backends:      urls,
			ProbeInterval: 100 * time.Millisecond,
			FailAfter:     2,
			ProxyAttempts: 2,
			ProxyBackoff:  5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		router = r
		pctx, pcancel := context.WithCancel(context.Background())
		t.Cleanup(pcancel)
		r.Start(pctx)
		front := httptest.NewServer(r.Handler())
		t.Cleanup(front.Close)
		base = front.URL
		// The victim must own at least one workload fingerprint, or the
		// kill would be invisible to the request path.
		victim, _ := r.full.Owner(fingerprintOf(t, allocBody(t, workloads.Figure1(), 1)))
		kill = func() {
			for i := range backends {
				if backends[i].URL == victim {
					// Abrupt death: cut live connections, then the
					// listener. The backend's in-memory job registry dies
					// with it.
					backends[i].CloseClientConnections()
					backends[i].Close()
				}
			}
		}
	} else if pidMap := os.Getenv("SALSA_CLUSTER_PIDS"); pidMap != "" {
		pids := make(map[string]int)
		for _, entry := range strings.Split(pidMap, ",") {
			url, pid, ok := strings.Cut(entry, "=")
			if !ok {
				t.Fatalf("SALSA_CLUSTER_PIDS entry %q: want url=pid", entry)
			}
			p, err := strconv.Atoi(pid)
			if err != nil {
				t.Fatalf("SALSA_CLUSTER_PIDS entry %q: %v", entry, err)
			}
			pids[strings.TrimRight(url, "/")] = p
		}
		// Ask the live router which shard owns figure1: one probe
		// request whose X-Salsa-Shard header names the victim. An
		// off-script seed keeps the probe out of the specs' cache keys.
		probe := allocBody(t, workloads.Figure1(), 999)
		resp, out := postAllocate(t, base, probe)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("victim probe: status %d: %s", resp.StatusCode, out)
		}
		victim := resp.Header.Get("X-Salsa-Shard")
		p, ok := pids[victim]
		if !ok {
			t.Fatalf("victim probe: shard %q not in SALSA_CLUSTER_PIDS %q", victim, pidMap)
		}
		t.Logf("SIGKILL victim: %s (pid %d, owns figure1)", victim, p)
		kill = func() {
			if err := syscall.Kill(p, syscall.SIGKILL); err != nil {
				t.Errorf("killing backend pid %d: %v", p, err)
			}
		}
	}

	type spec struct {
		name string
		g    *cdfg.Graph
		seed int64
	}
	specs := []spec{
		{"figure1", workloads.Figure1(), 1},
		{"diffeq", workloads.Diffeq(), 1},
		{"fir8", workloads.FIR8(), 1},
		{"figure1-s2", workloads.Figure1(), 2},
		{"diffeq-s2", workloads.Diffeq(), 2},
	}
	expected := make(map[string][]byte, len(specs))
	requests := make(map[string]*service.AllocateRequest, len(specs))
	for _, sp := range specs {
		expected[sp.name] = expectedSmokeBody(t, sp.g, sp.seed)
		doc, err := sp.g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		requests[sp.name] = &service.AllocateRequest{
			Graph: doc, Mode: "salsa", Seed: sp.seed, Restarts: 1, TimeoutMS: 60_000,
		}
	}

	const total = 200
	const killAt = total / 2
	type op struct {
		spec  string
		async bool
	}
	ops := make([]op, 0, total)
	for i := 0; i < total; i++ {
		ops = append(ops, op{spec: specs[i%len(specs)].name, async: i%3 == 0})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var once sync.Once
	var dispatched, failures, async200 int
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, 16)
	for i, o := range ops {
		if i == killAt && kill != nil {
			// Pull the plug with ~16 ops in flight: exchanges die
			// mid-body, jobs pinned to the dead shard become
			// unreachable, and all of it must heal through retries,
			// failover and resubmission.
			once.Do(kill)
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, o op) {
			defer wg.Done()
			defer func() { <-sem }()
			cl := client.New(client.Config{
				BaseURL:      base,
				Seed:         int64(i),
				MaxAttempts:  10,
				BaseBackoff:  20 * time.Millisecond,
				MaxBackoff:   500 * time.Millisecond,
				PollInterval: 10 * time.Millisecond,
			})
			var res *client.Result
			var err error
			if o.async {
				res, err = cl.DoJob(ctx, requests[o.spec])
			} else {
				res, err = cl.Do(ctx, requests[o.spec])
			}
			mu.Lock()
			defer mu.Unlock()
			dispatched++
			if err != nil {
				failures++
				t.Errorf("op %d (%s async=%t): client-visible failure: %v", i, o.spec, o.async, err)
				return
			}
			if o.async {
				async200++
			}
			if res.Result.Partial {
				t.Errorf("op %d (%s): partial result with a 60s deadline", i, o.spec)
				return
			}
			if !bytes.Equal(compactJSON(res.Body), expected[o.spec]) {
				t.Errorf("op %d (%s async=%t, shard=%s cache=%s): body diverges from direct salsa.Execute",
					i, o.spec, o.async, res.Shard, res.Cache)
			}
		}(i, o)
	}
	wg.Wait()

	if dispatched != total || failures != 0 {
		t.Errorf("dispatched=%d failures=%d, want %d/0", dispatched, failures, total)
	}
	if async200 == 0 {
		t.Error("no async op completed")
	}
	if router != nil {
		m := router.MetricsSnapshot()
		t.Logf("router metrics: %v", m)
		if m["requests_total"] == 0 || m["routed_total"] == 0 {
			t.Errorf("router counters flat: %v", m)
		}
		if kill != nil && m["failover_total"]+m["rehomed_total"]+m["jobs_lost_total"]+m["job_unavailable_total"] == 0 {
			t.Errorf("backend killed mid-run yet no failover/re-home/job-outage observed: %v", m)
		}
	}
}

// expectedSmokeBody mirrors the service: normalize the same request,
// execute directly, build the same result document.
func expectedSmokeBody(t *testing.T, g *cdfg.Graph, seed int64) []byte {
	t.Helper()
	req := salsa.Request{Graph: g, Mode: "salsa", Seed: seed, Restarts: 1}.Normalize()
	des, res, stats, err := salsa.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("direct execute: %v", err)
	}
	rj := salsa.BuildResultJSON(g, des.Steps(), req.Mode, req.Seed, req.Restarts, res, stats)
	body, err := json.Marshal(rj)
	if err != nil {
		t.Fatal(err)
	}
	return compactJSON(append(body, '\n'))
}

// compactJSON normalizes whitespace so sync bodies (trailing newline)
// and job-status results (re-marshaled) compare equal.
func compactJSON(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return b
	}
	return buf.Bytes()
}
