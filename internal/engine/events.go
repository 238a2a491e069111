package engine

import (
	"fmt"
	"time"

	"salsa/internal/binding"
)

// EventKind discriminates telemetry events.
type EventKind int

const (
	// EventJobStarted fires when a worker claims a job.
	EventJobStarted EventKind = iota
	// EventImproved fires when a job's trial-end best improves the
	// portfolio-wide best cost observed so far (the live incumbent).
	EventImproved
	// EventJobFinished fires when a job's canonical result is resolved
	// by the reduction (in job-index order, not completion order).
	EventJobFinished
)

func (k EventKind) String() string {
	switch k {
	case EventJobStarted:
		return "started"
	case EventImproved:
		return "improved"
	case EventJobFinished:
		return "finished"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one progress-telemetry record. Events are emitted live, so
// their interleaving and Elapsed stamps depend on scheduling; the
// search results and Stats do not. The Events callback is invoked
// serially — it never runs concurrently with itself.
type Event struct {
	Kind  EventKind
	Job   int    // index of the job within the portfolio
	Label string // the job's label
	Seed  int64  // the job's seed

	// Trial is the trial index at an EventImproved boundary.
	Trial int
	// Cost is the new live-incumbent total (EventImproved) or the
	// job's canonical final total (EventJobFinished).
	Cost int
	// Merged is the merged-mux count of a finished job's result.
	Merged int
	// Pruned marks a finished job cut short by incumbent pruning.
	Pruned bool
	// Err carries a finished job's failure, if any.
	Err error

	// Elapsed is the wall time since Run started.
	Elapsed time.Duration
}

// String renders the event for log-style output (cmd/salsa -v).
func (e Event) String() string {
	at := e.Elapsed.Round(time.Millisecond)
	switch e.Kind {
	case EventJobStarted:
		return fmt.Sprintf("[%7s] job %d (%s) started", at, e.Job, e.Label)
	case EventImproved:
		return fmt.Sprintf("[%7s] job %d (%s) trial %d: incumbent -> %d", at, e.Job, e.Label, e.Trial, e.Cost)
	case EventJobFinished:
		if e.Err != nil {
			return fmt.Sprintf("[%7s] job %d (%s) failed: %v", at, e.Job, e.Label, e.Err)
		}
		suffix := ""
		if e.Pruned {
			suffix = " (pruned)"
		}
		return fmt.Sprintf("[%7s] job %d (%s) finished: cost %d, %d merged muxes%s", at, e.Job, e.Label, e.Cost, e.Merged, suffix)
	default:
		return fmt.Sprintf("[%7s] job %d (%s) %v", at, e.Job, e.Label, e.Kind)
	}
}

// JobResult is the canonical outcome of one portfolio entry. All
// fields except Duration are deterministic for a given portfolio and
// options, regardless of worker count (Duration is wall-clock truth
// for the work the job actually performed before the engine cut it
// off, which may exceed its canonical share).
type JobResult struct {
	Job   int
	Label string
	Seed  int64

	// Cost and Merged are the job's canonical result costs; zero-value
	// when the job failed.
	Cost   binding.Cost
	Merged int

	// Trials / MovesTried / MovesAccepted count the canonical search
	// effort (up to the canonical stopping trial).
	Trials        int
	MovesTried    int
	MovesAccepted int

	// Pruned marks a job stopped at the canonical incumbent-pruning
	// boundary; Cancelled one stopped by context cancellation.
	Pruned    bool
	Cancelled bool
	// Err is the job's failure, if any (e.g. an infeasible register
	// budget under the traditional model).
	Err error

	Duration time.Duration
}

// Stats aggregates one portfolio run. Everything except Wall and the
// per-job Durations is deterministic for a given portfolio, options
// and (un-cancelled) run, independent of worker count and completion
// order.
type Stats struct {
	Jobs      int
	Pruned    int // jobs stopped at a canonical pruning boundary
	Cancelled int // jobs stopped by cancellation or deadline
	Failed    int // jobs that returned an error

	// Canonical search effort summed over jobs; work a job performed
	// past its canonical stopping point (before the engine could cut
	// it off) is not counted.
	Trials        int
	MovesTried    int
	MovesAccepted int

	// BestJob is the winner's portfolio index, -1 when every job
	// failed.
	BestJob    int
	BestCost   binding.Cost
	BestMerged int

	Wall   time.Duration
	PerJob []JobResult
}

// String renders a one-line summary.
func (s *Stats) String() string {
	return fmt.Sprintf("%d jobs (%d pruned, %d cancelled, %d failed), %d trials, %d/%d moves accepted, best job %d cost %d in %s",
		s.Jobs, s.Pruned, s.Cancelled, s.Failed, s.Trials, s.MovesAccepted, s.MovesTried, s.BestJob, s.BestCost.Total, s.Wall.Round(time.Millisecond))
}
