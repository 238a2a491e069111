// Package sched schedules a CDFG onto control steps under resource
// constraints. It stands in for the SALSA scheduler the paper cites
// ([16]): the allocator consumes only a legal schedule at a given
// length, and the paper's own move set contains no scheduling moves, so
// any legal schedule of the required length is an equivalent input.
//
// Loop bodies (cyclic graphs) are scheduled without iteration overlap:
// state values are available at step 0 and every operator must finish
// by the last step, exactly as in the paper's EWF experiments.
package sched

import (
	"fmt"
	"sort"

	"salsa/internal/cdfg"
)

// Class partitions operators by the functional-unit kind that executes
// them. Adders and subtracters share the ALU class; multipliers form
// their own class, matching the paper's hardware assumptions.
type Class int

const (
	// ClassALU executes Add and Sub (and No-Op pass-throughs).
	ClassALU Class = iota
	// ClassMul executes Mul.
	ClassMul
	// NumClasses is the number of FU classes.
	NumClasses
)

// String names the class for reports.
func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassMul:
		return "mul"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ClassOf returns the FU class executing op. Only arithmetic kinds have
// a class.
func ClassOf(op cdfg.Op) Class {
	if op == cdfg.Mul {
		return ClassMul
	}
	return ClassALU
}

// Limits holds a per-class FU budget.
type Limits [NumClasses]int

// Schedule assigns each arithmetic node a start step. Source nodes
// conceptually start at step 0; Output nodes carry the step at which
// their operand becomes available (used by lifetime analysis).
type Schedule struct {
	G      *cdfg.Graph
	Delays cdfg.Delays
	Steps  int
	// Start holds the start step per node. For sources it is 0; for
	// Output nodes it is the first step the sunk value is available.
	Start []int
}

// FinishOf returns the exclusive finish step of node id (start for
// zero-delay kinds).
func (s *Schedule) FinishOf(id cdfg.NodeID) int {
	return s.Start[id] + s.Delays.Of(s.G.Nodes[id].Op)
}

// Check verifies dependency, completion and (if limits is non-nil)
// resource legality, returning the first violation found.
func (s *Schedule) Check(limits *Limits) error {
	g := s.G
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if !n.Op.IsArith() {
			continue
		}
		st := s.Start[i]
		if st < 0 {
			return fmt.Errorf("sched: op %s unscheduled", n.Name)
		}
		if st+s.Delays.Of(n.Op) > s.Steps {
			return fmt.Errorf("sched: op %s finishes at %d past %d steps", n.Name, st+s.Delays.Of(n.Op), s.Steps)
		}
		for _, a := range n.Args {
			an := &g.Nodes[a]
			if an.Op.IsArith() {
				if fin := s.Start[a] + s.Delays.Of(an.Op); st < fin {
					return fmt.Errorf("sched: op %s starts at %d before producer %s finishes at %d", n.Name, st, an.Name, fin)
				}
			}
		}
	}
	if limits != nil {
		use := make([][NumClasses]int, s.Steps)
		for i := range g.Nodes {
			n := &g.Nodes[i]
			if !n.Op.IsArith() {
				continue
			}
			c := ClassOf(n.Op)
			for t := s.Start[i]; t < s.Start[i]+s.Delays.IIOf(n.Op); t++ {
				use[t][c]++
				if use[t][c] > limits[c] {
					return fmt.Errorf("sched: step %d uses %d %s units, limit %d", t, use[t][c], c, limits[c])
				}
			}
		}
	}
	return nil
}

// Usage returns, per step and class, how many FUs the schedule occupies.
func (s *Schedule) Usage() [][NumClasses]int {
	use := make([][NumClasses]int, s.Steps)
	for i := range s.G.Nodes {
		n := &s.G.Nodes[i]
		if !n.Op.IsArith() {
			continue
		}
		c := ClassOf(n.Op)
		for t := s.Start[i]; t < s.Start[i]+s.Delays.IIOf(n.Op); t++ {
			use[t][c]++
		}
	}
	return use
}

// MinLimits returns the per-class maximum concurrent usage: the smallest
// FU budget under which this particular schedule is legal.
func (s *Schedule) MinLimits() Limits {
	var lim Limits
	for _, u := range s.Usage() {
		for c := Class(0); c < NumClasses; c++ {
			if u[c] > lim[c] {
				lim[c] = u[c]
			}
		}
	}
	return lim
}

// fillSourceAndOutputStarts sets Start for non-arithmetic nodes from the
// arithmetic starts already present.
func (s *Schedule) fillSourceAndOutputStarts() {
	g := s.G
	for i := range g.Nodes {
		n := &g.Nodes[i]
		switch {
		case n.Op.IsSource():
			s.Start[i] = 0
		case n.Op == cdfg.Output:
			a := n.Args[0]
			if g.Nodes[a].Op.IsArith() {
				s.Start[i] = s.Start[a] + s.Delays.Of(g.Nodes[a].Op)
			} else {
				s.Start[i] = 0
			}
		}
	}
}

// ASAP computes the as-soon-as-possible start step of every node and
// returns the schedule (length = critical path).
func ASAP(g *cdfg.Graph, d cdfg.Delays) *Schedule {
	s := &Schedule{G: g, Delays: d, Start: make([]int, len(g.Nodes))}
	maxFin := 0
	for _, id := range g.Topo() {
		n := &g.Nodes[id]
		if !n.Op.IsArith() {
			continue
		}
		st := 0
		for _, a := range n.Args {
			an := &g.Nodes[a]
			if an.Op.IsArith() {
				if fin := s.Start[a] + d.Of(an.Op); fin > st {
					st = fin
				}
			}
		}
		s.Start[id] = st
		if fin := st + d.Of(n.Op); fin > maxFin {
			maxFin = fin
		}
	}
	s.Steps = maxFin
	s.fillSourceAndOutputStarts()
	return s
}

// ALAP computes the as-late-as-possible start steps for a schedule of
// the given length. It returns nil if steps is below the critical path.
func ALAP(g *cdfg.Graph, d cdfg.Delays, steps int) *Schedule {
	if steps < g.CriticalPath(d) {
		return nil
	}
	s := &Schedule{G: g, Delays: d, Steps: steps, Start: make([]int, len(g.Nodes))}
	// latestFinish[i]: latest exclusive finish step of node i.
	latest := make([]int, len(g.Nodes))
	for i := range latest {
		latest[i] = steps
	}
	topo := g.Topo()
	for k := len(topo) - 1; k >= 0; k-- {
		id := topo[k]
		n := &g.Nodes[id]
		if !n.Op.IsArith() {
			continue
		}
		for _, u := range g.Uses(id) {
			un := &g.Nodes[u]
			if un.Op.IsArith() {
				if st := s.Start[u]; st < latest[id] {
					latest[id] = st
				}
			}
		}
		s.Start[id] = latest[id] - d.Of(n.Op)
	}
	s.fillSourceAndOutputStarts()
	return s
}

// List performs resource-constrained list scheduling to the given
// length and budget. Ready operators are prioritized by least ALAP
// slack. It returns nil if no legal schedule is found (the heuristic is
// not exact, but with least-slack priority it achieves the known
// optimal FU counts on the benchmark suite).
func List(g *cdfg.Graph, d cdfg.Delays, steps int, limits Limits) *Schedule {
	return ListConstrained(g, d, steps, limits, nil, nil)
}

// ListConstrained is List with optional per-op release times (earliest
// start) and deadlines (latest start). Either slice may be nil; entries
// for non-arithmetic nodes are ignored. Deadlines tighter than ALAP and
// releases later than ASAP shrink the search; the scheduler returns nil
// when any operator cannot meet its window. The allocation pipeline
// uses these to repair loop-carried lifetime overlaps (a reader of a
// state value must run before the state's next content is produced).
func ListConstrained(g *cdfg.Graph, d cdfg.Delays, steps int, limits Limits, release, deadline []int) *Schedule {
	alap := ALAP(g, d, steps)
	if alap == nil {
		return nil
	}
	dl := make([]int, len(g.Nodes))
	for i := range dl {
		dl[i] = alap.Start[i]
		if deadline != nil && deadline[i] >= 0 && deadline[i] < dl[i] {
			dl[i] = deadline[i]
		}
	}
	s := &Schedule{G: g, Delays: d, Steps: steps, Start: make([]int, len(g.Nodes))}
	for i := range s.Start {
		s.Start[i] = -1
	}
	// remaining unscheduled predecessors per node
	pred := make([]int, len(g.Nodes))
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if !n.Op.IsArith() {
			continue
		}
		for _, a := range n.Args {
			if g.Nodes[a].Op.IsArith() {
				pred[i]++
			}
		}
	}
	// earliest[i]: earliest legal start given scheduled predecessors
	// and release times.
	earliest := make([]int, len(g.Nodes))
	if release != nil {
		for i := range earliest {
			if release[i] > 0 {
				earliest[i] = release[i]
			}
		}
	}
	var ready []cdfg.NodeID
	for i := range g.Nodes {
		if g.Nodes[i].Op.IsArith() && pred[i] == 0 {
			ready = append(ready, cdfg.NodeID(i))
		}
	}
	use := make([][NumClasses]int, steps)
	remaining := g.NumOps()
	for t := 0; t < steps && remaining > 0; t++ {
		// Deterministic priority: least ALAP start (least slack) first,
		// then lower ID.
		sort.Slice(ready, func(i, j int) bool {
			ai, aj := dl[ready[i]], dl[ready[j]]
			if ai != aj {
				return ai < aj
			}
			return ready[i] < ready[j]
		})
		var next []cdfg.NodeID
		for _, id := range ready {
			n := &g.Nodes[id]
			c := ClassOf(n.Op)
			ii := d.IIOf(n.Op)
			ok := earliest[id] <= t && t <= dl[id] && t+d.Of(n.Op) <= steps
			if ok {
				for u := t; u < t+ii; u++ {
					if use[u][c]+1 > limits[c] {
						ok = false
						break
					}
				}
			}
			if !ok {
				if dl[id] < t {
					return nil // slack exhausted; infeasible under this budget
				}
				next = append(next, id)
				continue
			}
			s.Start[id] = t
			for u := t; u < t+ii; u++ {
				use[u][c]++
			}
			remaining--
			for _, uid := range g.Uses(id) {
				un := &g.Nodes[uid]
				if !un.Op.IsArith() {
					continue
				}
				if fin := t + d.Of(n.Op); fin > earliest[uid] {
					earliest[uid] = fin
				}
				pred[uid]--
				if pred[uid] == 0 {
					next = append(next, uid)
				}
			}
		}
		ready = next
	}
	if remaining > 0 {
		return nil
	}
	s.fillSourceAndOutputStarts()
	return s
}

// fuAreaWeight orders FU budgets when searching for a minimal
// allocation: multipliers are far more expensive than ALUs.
var fuAreaWeight = [NumClasses]int{ClassALU: 1, ClassMul: 8}

// MinFUSchedule finds a schedule of the given length using a minimal FU
// budget: it enumerates budgets upward from the work lower bounds in
// order of total weighted area and returns the first that schedules.
// It returns nil if steps is below the critical path.
func MinFUSchedule(g *cdfg.Graph, d cdfg.Delays, steps int) (*Schedule, Limits) {
	if ALAP(g, d, steps) == nil {
		return nil, Limits{}
	}
	// Work lower bounds: ceil(ops*II / steps), at least 1 if any op.
	var lower Limits
	var count [NumClasses]int
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Op.IsArith() {
			count[ClassOf(n.Op)]++
		}
	}
	for c := Class(0); c < NumClasses; c++ {
		if count[c] == 0 {
			continue
		}
		var op cdfg.Op
		if c == ClassMul {
			op = cdfg.Mul
		} else {
			op = cdfg.Add
		}
		work := count[c] * d.IIOf(op)
		lower[c] = (work + steps - 1) / steps
		if lower[c] < 1 {
			lower[c] = 1
		}
	}
	// Enumerate candidate budgets in increasing weighted-area order.
	type cand struct {
		lim  Limits
		cost int
	}
	var cands []cand
	const span = 16
	for da := 0; da <= span; da++ {
		for dm := 0; dm <= span; dm++ {
			lim := lower
			if count[ClassALU] > 0 {
				lim[ClassALU] += da
			} else if da > 0 {
				continue
			}
			if count[ClassMul] > 0 {
				lim[ClassMul] += dm
			} else if dm > 0 {
				continue
			}
			cost := 0
			for c := Class(0); c < NumClasses; c++ {
				cost += lim[c] * fuAreaWeight[c]
			}
			cands = append(cands, cand{lim, cost})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].lim[ClassMul] < cands[j].lim[ClassMul]
	})
	for _, c := range cands {
		if s := List(g, d, steps, c.lim); s != nil {
			return s, c.lim
		}
	}
	return nil, Limits{}
}
