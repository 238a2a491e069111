package service

import (
	"context"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"salsa"
	"salsa/internal/clock"
	"salsa/internal/workloads"
)

// TestRetryAfterDerivation pins the one shared Retry-After derivation:
// ceil-ish batching of the visible backlog over the slot count,
// clamped to [1, 30]. Every rejection path (admission 429, drain 503,
// job-registry 429) goes through this helper, so these numbers are the
// service's complete Retry-After behavior.
func TestRetryAfterDerivation(t *testing.T) {
	cases := []struct {
		queued, maxConcurrent, want int
	}{
		{0, 1, 1}, // idle: always at least a second
		{0, 2, 1},
		{1, 2, 1}, // less than one batch behind
		{2, 2, 2}, // exactly one batch
		{4, 2, 3},
		{7, 4, 2},
		{29, 1, 30},  // clamp boundary from below
		{58, 2, 30},  // clamp boundary at another slot count
		{100, 1, 30}, // clamped
		{5, 0, 6},    // degenerate slot count defends as 1
		{-3, 2, 1},   // negative backlog defends as 0
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.queued, tc.maxConcurrent); got != tc.want {
			t.Errorf("retryAfterSeconds(%d, %d) = %d, want %d",
				tc.queued, tc.maxConcurrent, got, tc.want)
		}
	}
}

// admissionHarness is a gated one-slot server on a virtual clock:
// every engine run blocks at runStarted until the gate opens, so tests
// choreograph exactly who holds the slot and who waits.
type admissionHarness struct {
	e    *testServer
	clk  *clock.Virtual
	gate chan struct{}
}

func newAdmissionHarness(t *testing.T, maxQueue int) *admissionHarness {
	t.Helper()
	clk := clock.NewVirtual()
	e := newTestServer(t, Config{
		MaxConcurrent: 1,
		MaxQueue:      maxQueue,
		Hooks:         &Hooks{Clock: clk},
	})
	h := &admissionHarness{e: e, clk: clk, gate: make(chan struct{})}
	e.s.runStarted = func(*allocSpec) { <-h.gate }
	return h
}

// occupy sends a request that acquires the engine slot and parks at
// the gate; it returns a channel carrying the eventual status.
func (h *admissionHarness) occupy(t *testing.T, seed int64) <-chan int {
	t.Helper()
	done := h.send(t, seed, 0)
	waitFor(t, "the slot holder to start its run", func() bool {
		return h.e.s.metrics.ActiveRuns.Load() == 1
	})
	return done
}

// send posts an allocation with a distinct cache key per seed and a
// request timeout in (virtual) milliseconds; 0 keeps the server
// default.
func (h *admissionHarness) send(t *testing.T, seed int64, timeoutMS int64) <-chan int {
	t.Helper()
	body := allocBody(t, workloads.Figure1(), func(ar *AllocateRequest) {
		ar.Seed = seed
		ar.TimeoutMS = timeoutMS
	})
	done := make(chan int, 1)
	go func() {
		status, _, _ := h.e.post(t, "/allocate", body)
		done <- status
	}()
	return done
}

// waitQueued blocks until exactly n requests are parked in the
// admission queue.
func (h *admissionHarness) waitQueued(t *testing.T, n int) {
	t.Helper()
	waitFor(t, "admission queue to park waiters", func() bool {
		return h.e.s.metrics.QueueDepth.Load() == int64(n)
	})
}

// TestAdmissionBoundaries drives the 429-vs-408 boundary through a
// table: a request that arrives to a full queue is rejected on the
// spot with 429 and the derived Retry-After; a request that was
// admitted but whose deadline expires while queued answers 408; a
// request that gets the slot before its deadline answers 200. Time is
// virtual — the deadline cases advance the clock, never sleep.
func TestAdmissionBoundaries(t *testing.T) {
	cases := []struct {
		name           string
		fillers        int           // parked waiters before the probe
		probeTimeoutMS int64         // probe deadline (0 = server default)
		advance        time.Duration // virtual advance once the probe is parked
		wantStatus     int
		wantRetryAfter string
		wantBody       string
	}{
		{
			name:           "arrives_to_full_queue_rejected_429",
			fillers:        2, // MaxQueue: queue is exactly full
			wantStatus:     http.StatusTooManyRequests,
			wantRetryAfter: "3", // retryAfterSeconds(queued=2, maxConcurrent=1)
			wantBody:       "admission queue full",
		},
		{
			name:           "deadline_expires_while_queued_408",
			fillers:        1,
			probeTimeoutMS: 100,
			advance:        150 * time.Millisecond,
			wantStatus:     http.StatusRequestTimeout,
			wantBody:       "while queued",
		},
		{
			name:       "slot_frees_before_deadline_200",
			fillers:    0,
			wantStatus: http.StatusOK,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newAdmissionHarness(t, 2)
			holder := h.occupy(t, 100)
			var fillers []<-chan int
			for i := 0; i < tc.fillers; i++ {
				fillers = append(fillers, h.send(t, 101+int64(i), 0))
				h.waitQueued(t, i+1)
			}

			probeBody := allocBody(t, workloads.Figure1(), func(ar *AllocateRequest) {
				ar.Seed = 200
				ar.TimeoutMS = tc.probeTimeoutMS
			})
			type reply struct {
				status     int
				retryAfter string
				body       []byte
			}
			probe := make(chan reply, 1)
			go func() {
				status, hdr, out := h.e.post(t, "/allocate", probeBody)
				probe <- reply{status, hdr.Get("Retry-After"), out}
			}()
			if tc.advance > 0 {
				h.waitQueued(t, tc.fillers+1)
				h.clk.Advance(tc.advance)
			}
			if tc.wantStatus == http.StatusOK {
				// Success path: the probe must be parked, then get the
				// slot once the gate opens and the holder finishes.
				h.waitQueued(t, tc.fillers+1)
				close(h.gate)
			}
			got := <-probe
			if got.status != tc.wantStatus {
				t.Fatalf("probe status %d, want %d (body %s)", got.status, tc.wantStatus, got.body)
			}
			if tc.wantRetryAfter != "" && got.retryAfter != tc.wantRetryAfter {
				t.Errorf("Retry-After %q, want %q", got.retryAfter, tc.wantRetryAfter)
			}
			if tc.wantBody != "" && !strings.Contains(string(got.body), tc.wantBody) {
				t.Errorf("body %s does not mention %q", got.body, tc.wantBody)
			}

			// Let everyone still parked finish; nobody may be stranded.
			select {
			case <-h.gate:
			default:
				close(h.gate)
			}
			if status := <-holder; status != http.StatusOK {
				t.Errorf("slot holder finished %d, want 200", status)
			}
			for i, f := range fillers {
				if status := <-f; status != http.StatusOK {
					t.Errorf("filler %d finished %d, want 200", i, status)
				}
			}
			if depth := h.e.s.metrics.QueueDepth.Load(); depth != 0 {
				t.Errorf("queue depth %d after all requests finished, want 0", depth)
			}
		})
	}
}

// TestQueueSlotFreedByTimedOutWaiter: a waiter whose deadline expires
// in the queue gives its slot back — the very next arrival is admitted
// where a moment earlier it would have been rejected.
func TestQueueSlotFreedByTimedOutWaiter(t *testing.T) {
	h := newAdmissionHarness(t, 1)
	holder := h.occupy(t, 100)

	// W fills the only queue slot, with a 100ms (virtual) deadline.
	w := h.send(t, 101, 100)
	h.waitQueued(t, 1)

	// Probe A arrives to a full queue: rejected on the spot, told to
	// come back after the derived hint.
	bodyA := allocBody(t, workloads.Figure1(), func(ar *AllocateRequest) { ar.Seed = 102 })
	status, hdr, out := h.e.post(t, "/allocate", bodyA)
	if status != http.StatusTooManyRequests {
		t.Fatalf("probe A status %d, want 429 (body %s)", status, out)
	}
	if got, want := hdr.Get("Retry-After"), "2"; got != want {
		t.Errorf("probe A Retry-After %q, want %q (queued=1, maxConcurrent=1)", got, want)
	}

	// W's deadline fires while it queues: 408, and the slot drains.
	h.clk.Advance(150 * time.Millisecond)
	if status := <-w; status != http.StatusRequestTimeout {
		t.Fatalf("waiter status %d, want 408", status)
	}
	waitFor(t, "the timed-out waiter to leave the queue", func() bool {
		return h.e.s.metrics.QueueDepth.Load() == 0
	})

	// Probe B arrives to the drained queue: admitted, and completes
	// once the gate opens.
	b := h.send(t, 103, 0)
	h.waitQueued(t, 1)
	close(h.gate)
	if status := <-holder; status != http.StatusOK {
		t.Errorf("slot holder finished %d, want 200", status)
	}
	if status := <-b; status != http.StatusOK {
		t.Errorf("probe B finished %d, want 200", status)
	}
	m := h.e.s.MetricsSnapshot()
	if m["queue_rejected_total"] != 1 || m["deadline_empty_total"] != 1 {
		t.Errorf("rejected=%d deadline_empty=%d, want 1/1",
			m["queue_rejected_total"], m["deadline_empty_total"])
	}
}

// parkedForSlot counts the goroutines blocked in runAllocation's own
// select, the wait for an engine slot, from a dump of every
// goroutine's stack: the dump names a blocked goroutine's state in its
// header and the function holding the select in its first frame.
func parkedForSlot() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	parked := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, frames, _ := strings.Cut(g, "\n")
		if strings.Contains(header, "[select") && strings.HasPrefix(frames, "salsa/internal/service.(*Server).runAllocation(") {
			parked++
		}
	}
	return parked
}

// TestSemaphoreHandoffOrder: with one engine slot, runs start one at a
// time, in arrival order, and the slot hands off only when the holder
// finishes — mutual exclusion is never violated.
func TestSemaphoreHandoffOrder(t *testing.T) {
	clk := clock.NewVirtual()
	e := newTestServer(t, Config{
		MaxConcurrent: 1,
		MaxQueue:      4,
		Hooks:         &Hooks{Clock: clk},
	})
	var mu sync.Mutex
	var order []int64 // guarded by mu
	step := make(chan struct{})
	e.s.runStarted = func(spec *allocSpec) {
		mu.Lock()
		order = append(order, spec.req.Seed)
		mu.Unlock()
		<-step
	}
	started := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(order)
	}

	send := func(seed int64) <-chan int {
		body := allocBody(t, workloads.Figure1(), func(ar *AllocateRequest) { ar.Seed = seed })
		done := make(chan int, 1)
		go func() {
			status, _, _ := e.post(t, "/allocate", body)
			done <- status
		}()
		return done
	}

	// runAllocation raises QueueDepth before it reaches its select on
	// the semaphore, so the gauge alone does not show that B is parked
	// there: C, sent next, could reach the channel first. The
	// goroutine-dump probe does.
	a := send(100)
	waitFor(t, "request A to start", func() bool { return started() == 1 })
	b := send(101)
	waitFor(t, "request B to park on the semaphore", func() bool {
		return e.s.metrics.QueueDepth.Load() == 1 && parkedForSlot() == 1
	})
	c := send(102)
	waitFor(t, "request C to park behind B", func() bool {
		return e.s.metrics.QueueDepth.Load() == 2 && parkedForSlot() == 2
	})

	// Release A's run: exactly one waiter (B — blocked channel sends
	// hand off first-come-first-served) gets the slot; C stays parked.
	step <- struct{}{}
	waitFor(t, "the slot to hand off once", func() bool { return started() == 2 })
	if active := e.s.metrics.ActiveRuns.Load(); active != 1 {
		t.Errorf("active runs %d after first handoff, want 1 (mutual exclusion)", active)
	}
	step <- struct{}{}
	waitFor(t, "the slot to hand off twice", func() bool { return started() == 3 })
	if active := e.s.metrics.ActiveRuns.Load(); active != 1 {
		t.Errorf("active runs %d after second handoff, want 1", active)
	}
	step <- struct{}{}

	for i, ch := range []<-chan int{a, b, c} {
		if status := <-ch; status != http.StatusOK {
			t.Errorf("request %d finished %d, want 200", i, status)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 100 || order[1] != 101 || order[2] != 102 {
		t.Errorf("run order %v, want [100 101 102] (arrival order)", order)
	}
}

// TestEngineWorkerShare: with EngineWorkers 0, a run takes its share
// of GOMAXPROCS once it holds an engine slot — every core alone, half
// while another run holds the second slot, every core again once that
// run is gone. A positive EngineWorkers fixes every run's count.
func TestEngineWorkerShare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct {
		name          string
		engineWorkers int
		lone, second  int
	}{
		{"share", 0, 4, 2},
		{"fixed", 3, 3, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestServer(t, Config{MaxConcurrent: 2, EngineWorkers: tc.engineWorkers})
			gate := make(chan struct{})
			var gateOnce sync.Once
			release := func() { gateOnce.Do(func() { close(gate) }) }
			defer release()
			// The first run holds its slot at the gate; later runs pass.
			e.s.runStarted = func(spec *allocSpec) {
				if spec.req.Seed == 1 {
					<-gate
				}
			}
			var mu sync.Mutex
			workers := make(map[int64]int) // guarded by mu; search seed -> engine workers
			e.s.execute = func(ctx context.Context, req salsa.Request) (*salsa.Design, *salsa.Result, *salsa.Stats, error) {
				mu.Lock()
				workers[req.Seed] = req.Engine.Workers
				mu.Unlock()
				return salsa.Execute(ctx, req)
			}
			post := func(seed int64) int {
				status, _, _ := e.post(t, "/allocate", allocBody(t, workloads.Figure1(), func(ar *AllocateRequest) { ar.Seed = seed }))
				return status
			}

			first := make(chan int, 1)
			go func() { first <- post(1) }()
			waitFor(t, "the first run to hold its slot", func() bool {
				return e.s.metrics.ActiveRuns.Load() == 1
			})
			if status := post(2); status != http.StatusOK {
				t.Fatalf("second run: status %d", status)
			}
			release()
			if status := <-first; status != http.StatusOK {
				t.Fatalf("first run: status %d", status)
			}
			if status := post(3); status != http.StatusOK {
				t.Fatalf("third run: status %d", status)
			}

			mu.Lock()
			defer mu.Unlock()
			want := map[int64]int{1: tc.lone, 2: tc.second, 3: tc.lone}
			for seed, w := range want {
				if workers[seed] != w {
					t.Errorf("run with seed %d got %d engine workers, want %d", seed, workers[seed], w)
				}
			}
		})
	}
}
