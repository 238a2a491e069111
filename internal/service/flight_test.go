package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"salsa/internal/workloads"
)

// TestFlightLeaderErrorSharedAndCleared: when the leader's fn produces
// an error outcome, every parked waiter observes the same outcome, and
// the key is forgotten immediately so the next caller retries fresh
// instead of being served the stale failure.
func TestFlightLeaderErrorSharedAndCleared(t *testing.T) {
	g := newFlightGroup()
	gate := make(chan struct{})
	errOut := &outcome{status: http.StatusUnprocessableEntity, body: ErrorBody("boom")}
	var calls atomic.Int32

	const waiters = 4
	results := make([]*outcome, waiters+1)
	shared := make([]bool, waiters+1)
	var wg sync.WaitGroup
	for i := 0; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, sh, err := g.do(context.Background(), "k", func() *outcome {
				calls.Add(1)
				<-gate
				return errOut
			})
			if err != nil {
				t.Errorf("caller %d: unexpected error %v", i, err)
			}
			results[i], shared[i] = out, sh
		}(i)
	}
	waitFor(t, "all callers to join the flight", func() bool { return g.inFlight("k") == waiters+1 })
	close(gate)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	sharedCount := 0
	for i, out := range results {
		if out != errOut {
			t.Errorf("caller %d did not receive the leader's error outcome", i)
		}
		if shared[i] {
			sharedCount++
		}
	}
	if sharedCount != waiters {
		t.Errorf("%d shared callers, want %d", sharedCount, waiters)
	}

	// The failed key was cleared: a retry runs fn again rather than
	// replaying the error.
	out, sh, err := g.do(context.Background(), "k", func() *outcome {
		calls.Add(1)
		return &outcome{status: http.StatusOK}
	})
	if err != nil || sh || out.status != http.StatusOK || calls.Load() != 2 {
		t.Errorf("retry after error: out=%+v shared=%t err=%v calls=%d, want fresh 200 run",
			out, sh, err, calls.Load())
	}
}

// TestFlightWaiterContextExpiry: a waiter whose context expires while
// parked unblocks with ctx.Err() and without an outcome, while the
// leader keeps running to completion, untouched by the waiter's
// cancellation.
func TestFlightWaiterContextExpiry(t *testing.T) {
	g := newFlightGroup()
	gate := make(chan struct{})
	leaderOut := make(chan *outcome, 1)
	go func() {
		out, _, _ := g.do(context.Background(), "k", func() *outcome {
			<-gate
			return &outcome{status: http.StatusOK}
		})
		leaderOut <- out
	}()
	waitFor(t, "leader to register", func() bool { return g.inFlight("k") == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type waiterReply struct {
		out    *outcome
		shared bool
		err    error
	}
	waiterDone := make(chan waiterReply, 1)
	go func() {
		out, sh, err := g.do(ctx, "k", func() *outcome {
			t.Error("parked waiter ran fn")
			return nil
		})
		waiterDone <- waiterReply{out, sh, err}
	}()
	waitFor(t, "waiter to park", func() bool { return g.inFlight("k") == 2 })

	cancel()
	r := <-waiterDone
	if !errors.Is(r.err, context.Canceled) {
		t.Errorf("waiter error %v, want context.Canceled", r.err)
	}
	if r.out != nil || !r.shared {
		t.Errorf("abandoned waiter got out=%+v shared=%t, want nil outcome from a shared flight", r.out, r.shared)
	}

	// The leader is unaffected by the waiter's departure.
	close(gate)
	if out := <-leaderOut; out == nil || out.status != http.StatusOK {
		t.Errorf("leader outcome %+v, want 200", out)
	}
	if n := g.inFlight("k"); n != 0 {
		t.Errorf("key still in flight (%d) after completion", n)
	}
}

// TestAllocateAbandonedWaiterCachePopulated drives the same scenario
// through the HTTP handler: a request parked behind an identical
// in-flight run whose context expires gets 408 and increments the
// abandoned counter, while the leader finishes normally and still
// populates the result cache for later requests.
func TestAllocateAbandonedWaiterCachePopulated(t *testing.T) {
	e := newTestServer(t, Config{})
	gate := make(chan struct{})
	e.s.runStarted = func(*allocSpec) { <-gate }
	body := allocBody(t, workloads.Figure1(), nil)

	leaderDone := make(chan int, 1)
	go func() {
		status, _, _ := e.post(t, "/allocate", body)
		leaderDone <- status
	}()
	spec, err := e.s.parseRequest(&AllocateRequest{Graph: mustMarshal(t, workloads.Figure1()), Restarts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "leader to register its flight", func() bool { return e.s.flight.inFlight(spec.key) == 1 })

	// The follower carries its own cancellable request context; the
	// handler is invoked directly so the 408 response is observable
	// (a cancelled HTTP client would never see it).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/allocate", bytes.NewReader(body)).WithContext(ctx)
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		e.s.handleAllocate(rec, req)
	}()
	waitFor(t, "follower to park on the flight", func() bool { return e.s.flight.inFlight(spec.key) == 2 })

	cancel()
	<-followerDone
	if rec.Code != http.StatusRequestTimeout {
		t.Errorf("abandoned follower status %d, want 408; body %s", rec.Code, rec.Body.Bytes())
	}
	if n := e.s.metrics.FlightAbandoned.Load(); n != 1 {
		t.Errorf("flightAbandoned %d, want 1", n)
	}

	// The leader was not interrupted: it completes and fills the cache.
	close(gate)
	if status := <-leaderDone; status != http.StatusOK {
		t.Fatalf("leader status %d, want 200", status)
	}
	status, hdr, _ := e.post(t, "/allocate", body)
	if status != http.StatusOK || hdr.Get("X-Salsa-Cache") != "hit" {
		t.Errorf("post-abandonment request: status %d cache %q, want 200 hit", status, hdr.Get("X-Salsa-Cache"))
	}
}
