package service

import "salsa/internal/clock"

// FlightFault is a singleflight wakeup fault a test hook can inject
// into a parked waiter (see Hooks.FlightFault).
type FlightFault int

const (
	// FlightNone leaves the waiter alone.
	FlightNone FlightFault = iota
	// FlightDropWakeup simulates a lost completion signal: the waiter
	// abandons immediately, exactly as if its request context had
	// expired — the handler answers 408 and counts
	// salsa_singleflight_abandoned_total — while the leader keeps
	// running and still fills the cache.
	FlightDropWakeup
	// FlightDupWakeup simulates a spurious second wakeup: the waiter
	// observes the leader's completion twice and must see the same
	// terminal outcome both times.
	FlightDupWakeup
)

// Hooks are the test-only instrumentation points the simulation
// harness (internal/simtest) uses to run the whole request path under
// a virtual clock and a seeded fault plane. Every hook is nil in
// production, where the only cost is a nil check on paths that consult
// one. Set Config.Hooks before New; the hooks must not be mutated once
// the server is serving.
type Hooks struct {
	// Clock substitutes the server's time source: request latency
	// accounting, request deadlines, admission-queue waits and job
	// timestamps all read it. Nil selects the system clock.
	Clock clock.Clock
	// TrialPause, when non-nil, is installed as the engine's trial
	// pacing hook (engine.Config.TrialHook) for every run this server
	// leads, letting scenarios delay or stall searches in virtual time.
	TrialPause func(job, trial int)
	// FlightFault, when non-nil, is consulted once by every
	// singleflight waiter as it parks behind a leader for key.
	FlightFault func(key string) FlightFault
	// EvictCache, when non-nil, is consulted before each result-cache
	// lookup; returning true removes key first, simulating cache
	// pressure. A forced eviction must be invisible to correctness:
	// the re-run serves byte-identical bytes.
	EvictCache func(key string) bool
}
