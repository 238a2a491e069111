// Package simtest is a deterministic fault-injection and simulation
// harness for the salsad request path. One seed determines everything
// the harness controls: which requests get shed with injected 429s and
// 503s, which responses are cut off mid-body, which singleflight
// waiters lose or duplicate their wakeups, which cache entries are
// forcibly evicted, how long injected engine stalls last, and the
// schedule every scripted client follows. Time is virtual
// (clock.Virtual): backoff, Retry-After waits, poll intervals and
// request deadlines all elapse instantly in wall-clock terms, so a
// scenario that simulates minutes of retry traffic runs in
// milliseconds.
//
// Determinism has one documented limit: fault decisions are drawn from
// per-(kind, key) streams, so the Nth decision for a given stream is a
// pure function of the seed, but which goroutine consumes the Nth draw
// depends on scheduling. Scenario invariants are therefore written to
// hold for every interleaving; the seed pins the fault pattern, not
// the thread schedule.
package simtest

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"time"

	"salsa/internal/clock"
	"salsa/internal/service"
)

// FaultHeader marks every response the fault plane injected at the
// HTTP layer, so tests can tell injected failures from real ones: a
// 5xx without this header came from the server itself and is a bug.
const FaultHeader = "X-Simtest-Fault"

// Rates sets per-10000 probabilities for each fault kind. Zero rates
// disable a kind; the zero value disables the whole plane.
type Rates struct {
	// TrialStall pauses an engine trial boundary for 1–20 virtual
	// milliseconds, letting request deadlines overtake running searches.
	TrialStall int
	// EvictCache drops the result-cache entry just before a lookup.
	EvictCache int
	// FlightDrop / FlightDup inject lost and duplicated singleflight
	// wakeups into parked waiters.
	FlightDrop int
	FlightDup  int
	// HTTP429 / HTTP503 / HTTP500 short-circuit a request at the HTTP
	// layer with that status (429 carries a Retry-After).
	HTTP429 int
	HTTP503 int
	HTTP500 int
	// Disconnect cuts a 200 response off mid-body: the client sees a
	// truncated read, never a usable answer.
	Disconnect int
}

// Light returns a modest fault mix: every kind enabled, each rare
// enough that a retrying client converges comfortably within its
// attempt budget.
func Light() Rates {
	return Rates{
		TrialStall: 500,
		EvictCache: 300,
		FlightDrop: 200,
		FlightDup:  300,
		HTTP429:    300,
		HTTP503:    300,
		HTTP500:    200,
		Disconnect: 200,
	}
}

// Faults is a seeded fault plane. Decisions come from independent
// deterministic streams keyed by (kind, key) — see the package comment
// for the determinism contract. Safe for concurrent use.
type Faults struct {
	seed  uint64
	rates Rates
	clk   *clock.Virtual

	mu       sync.Mutex
	streams  map[string]*uint64 // guarded by mu
	injected map[string]int64   // guarded by mu; fault kind -> times fired
}

// NewFaults returns a fault plane drawing all decisions from seed,
// stalling in virtual time on clk.
func NewFaults(seed int64, rates Rates, clk *clock.Virtual) *Faults {
	return &Faults{
		seed:     uint64(seed),
		rates:    rates,
		clk:      clk,
		streams:  make(map[string]*uint64),
		injected: make(map[string]int64),
	}
}

// draw advances the (kind, key) stream and returns a value in [0, n).
func (f *Faults) draw(kind, key string, n uint64) uint64 {
	h := fnv.New64a()
	// Writes to an fnv hash cannot fail.
	_, _ = h.Write([]byte(kind))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(key))
	id := kind + "\x00" + key
	f.mu.Lock()
	s, ok := f.streams[id]
	if !ok {
		x := (f.seed ^ h.Sum64()) * 2862933555777941757
		s = &x
		f.streams[id] = s
	}
	*s = *s*6364136223846793005 + 1442695040888963407
	v := *s >> 16
	f.mu.Unlock()
	return v % n
}

// roll decides one fault occurrence at rate-per-10000, tallying fires.
func (f *Faults) roll(kind, key string, rate int) bool {
	if rate <= 0 {
		return false
	}
	hit := f.draw(kind, key, 10000) < uint64(rate)
	if hit {
		f.mu.Lock()
		f.injected[kind]++
		f.mu.Unlock()
	}
	return hit
}

// Injected snapshots how many times each fault kind fired.
func (f *Faults) Injected() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int64, len(f.injected))
	for k, v := range f.injected {
		out[k] = v
	}
	return out
}

// ServiceHooks wires the plane (and its virtual clock) into a
// service.Config.
func (f *Faults) ServiceHooks() *service.Hooks {
	return &service.Hooks{
		Clock: f.clk,
		TrialPause: func(job, trial int) {
			key := fmt.Sprintf("job%d", job)
			if !f.roll("trialstall", key, f.rates.TrialStall) {
				return
			}
			stall := time.Duration(1+f.draw("stalldur", key, 20)) * time.Millisecond
			// The stall itself is uninterruptible (the engine hook has
			// no context); Background is correct and the sleep cannot
			// fail.
			_ = f.clk.Sleep(context.Background(), stall)
		},
		FlightFault: func(key string) service.FlightFault {
			if f.roll("flightdrop", key, f.rates.FlightDrop) {
				return service.FlightDropWakeup
			}
			if f.roll("flightdup", key, f.rates.FlightDup) {
				return service.FlightDupWakeup
			}
			return service.FlightNone
		},
		EvictCache: func(key string) bool {
			return f.roll("evict", key, f.rates.EvictCache)
		},
	}
}

// Middleware wraps the service handler with the HTTP-layer fault
// kinds: short-circuit rejections (429/503/500, all marked with
// FaultHeader) and mid-body disconnects of 200 responses.
func (f *Faults) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.Method + " " + r.URL.Path
		switch {
		case f.roll("http429", key, f.rates.HTTP429):
			w.Header().Set(FaultHeader, "injected-429")
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, "injected load shed")
			return
		case f.roll("http503", key, f.rates.HTTP503):
			w.Header().Set(FaultHeader, "injected-503")
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, "injected unavailability")
			return
		case f.roll("http500", key, f.rates.HTTP500):
			w.Header().Set(FaultHeader, "injected-500")
			writeErr(w, http.StatusInternalServerError, "injected server error")
			return
		}
		if f.rates.Disconnect <= 0 {
			next.ServeHTTP(w, r)
			return
		}
		rec := &captureWriter{header: make(http.Header)}
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		body := rec.buf
		for k, v := range rec.header {
			w.Header()[k] = v
		}
		if rec.status == http.StatusOK && len(body) > 1 && f.roll("disconnect", key, f.rates.Disconnect) {
			// Promise the full body, deliver half, then abort the
			// connection: what a network partition mid-response looks
			// like. The handler already completed normally — whatever
			// it cached or counted stands.
			w.Header().Set(FaultHeader, "injected-disconnect")
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			w.WriteHeader(rec.status)
			if _, err := w.Write(body[:len(body)/2]); err != nil {
				// The client may already be gone; the abort below is
				// the point either way.
				panic(http.ErrAbortHandler)
			}
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		w.WriteHeader(rec.status)
		// The client may have vanished; nothing useful to do with the
		// error (the real server discards it the same way).
		_, _ = w.Write(body)
	})
}

// captureWriter buffers a handler's response so the middleware can
// decide, after the fact, whether to deliver or truncate it.
type captureWriter struct {
	header http.Header
	status int
	buf    []byte
}

func (c *captureWriter) Header() http.Header { return c.header }

func (c *captureWriter) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	c.buf = append(c.buf, p...)
	return len(p), nil
}

// writeErr answers an injected rejection with the service's error
// document.
func writeErr(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Injected-rejection bodies are advisory; a vanished client loses
	// nothing.
	_, _ = w.Write(service.ErrorBody(msg))
}
