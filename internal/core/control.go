package core

import (
	"context"

	"salsa/internal/binding"
)

// StopReason records why an improvement search ended.
type StopReason int

const (
	// StopNatural: the trial budget ran out or the stall limit was hit.
	StopNatural StopReason = iota
	// StopCancelled: the context was cancelled or its deadline passed;
	// the result is the best allocation found up to that point.
	StopCancelled
	// StopPruned: the TrialEnd hook stopped the search early, typically
	// because a concurrent search already holds a better incumbent.
	StopPruned
)

func (s StopReason) String() string {
	switch s {
	case StopCancelled:
		return "cancelled"
	case StopPruned:
		return "pruned"
	default:
		return "natural"
	}
}

// Control carries runtime (non-configuration) hooks into one search.
// All fields are optional; the zero value runs the search to natural
// termination. Unlike Options, Control never influences which moves a
// search tries — only how early it is cut off and what it reports —
// so a search truncated at trial t is byte-identical to the prefix of
// the same search run to completion.
type Control struct {
	// Ctx, when non-nil, cancels the search between moves and its
	// polish between candidates. The best allocation found so far is
	// polished until then and returned with StopCancelled (anytime
	// semantics); only a search cancelled before a legal initial
	// allocation exists fails with the context's error.
	Ctx context.Context

	// TrialEnd, when non-nil, is called after every completed trial
	// with the trial index, the best binding and cost so far, whether
	// this trial improved the best, and the cumulative move counters.
	// Returning true stops the search; the best-so-far is polished and
	// returned with Stop = StopPruned. The *binding.Binding argument is
	// owned by the search: clone it before retaining.
	TrialEnd func(trial int, best *binding.Binding, bestCost binding.Cost, improved bool, tried, accepted int) (stop bool)
}

// ctx returns the control's context, or nil when absent.
func (c *Control) ctx() context.Context {
	if c == nil {
		return nil
	}
	return c.Ctx
}

// trialEnd invokes the TrialEnd hook if present.
func (c *Control) trialEnd(trial int, best *binding.Binding, bestCost binding.Cost, improved bool, tried, accepted int) bool {
	if c == nil || c.TrialEnd == nil {
		return false
	}
	return c.TrialEnd(trial, best, bestCost, improved, tried, accepted)
}
