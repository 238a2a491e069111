package dpsim

import "salsa/internal/cdfg"

// Stimulus builds a deterministic pseudo-random environment (inputs and
// initial state, each in [-1000, 1000]) for simulation, derived from
// the seed but decorrelated from the random-graph generator's stream.
// It is the one stimulus every verification path draws from.
func Stimulus(g *cdfg.Graph, seed int64) cdfg.Env {
	state := uint64(seed)*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03
	env := cdfg.Env{}
	for i := range g.Nodes {
		switch g.Nodes[i].Op {
		case cdfg.Input, cdfg.State:
			state = state*6364136223846793005 + 1442695040888963407
			env[g.Nodes[i].Name] = int64((state>>33)%2001) - 1000
		}
	}
	return env
}

// ZeroStateStimulus is Stimulus with all loop state cleared, as the
// RTL-level verifier requires (hardware registers power up cleared).
func ZeroStateStimulus(g *cdfg.Graph, seed int64) cdfg.Env {
	env := Stimulus(g, seed)
	for i := range g.Nodes {
		if g.Nodes[i].Op == cdfg.State {
			env[g.Nodes[i].Name] = 0
		}
	}
	return env
}
