package datapath

import (
	"math/rand"
	"testing"
	"testing/quick"

	"salsa/internal/sched"
)

func TestNewHardware(t *testing.T) {
	hw := NewHardware(sched.Limits{sched.ClassALU: 2, sched.ClassMul: 3}, 5, []string{"in"}, true)
	if len(hw.FUs) != 5 {
		t.Fatalf("FUs = %d, want 5", len(hw.FUs))
	}
	if len(hw.Regs) != 5 {
		t.Fatalf("Regs = %d, want 5", len(hw.Regs))
	}
	if got := len(hw.FUsOfClass(sched.ClassALU)); got != 2 {
		t.Errorf("ALUs = %d, want 2", got)
	}
	if got := len(hw.FUsOfClass(sched.ClassMul)); got != 3 {
		t.Errorf("Muls = %d, want 3", got)
	}
	for _, id := range hw.FUsOfClass(sched.ClassALU) {
		if !hw.FUs[id].CanPass {
			t.Error("ALU must be pass-capable when passALU is set")
		}
	}
	for _, id := range hw.FUsOfClass(sched.ClassMul) {
		if hw.FUs[id].CanPass {
			t.Error("multiplier must not be pass-capable")
		}
	}
	hw2 := NewHardware(sched.Limits{sched.ClassALU: 1}, 1, nil, false)
	if hw2.FUs[0].CanPass {
		t.Error("passALU=false must disable pass-through capability")
	}
}

func reg(i int) Source   { return Source{Kind: SrcReg, Index: i} }
func fu(i int) Source    { return Source{Kind: SrcFU, Index: i} }
func fuIn(i, p int) Sink { return Sink{Kind: SinkFUPort, Index: i, Port: p} }
func regIn(i int) Sink   { return Sink{Kind: SinkReg, Index: i} }

// newTestInterconnect returns an empty interconnect over the sinks the
// tests use: three FUs, six registers and one output, over eight steps.
func newTestInterconnect() *Interconnect {
	return NewInterconnect(SinkSpace{FUs: 3, Regs: 6, Outs: 1}, 8)
}

func TestMuxCostCounting(t *testing.T) {
	ic := newTestInterconnect()
	mustAdd := func(u Use) {
		t.Helper()
		if err := ic.AddUse(u); err != nil {
			t.Fatal(err)
		}
	}
	// fu0.a fed by R0 (step 0) and R1 (step 1): fanin 2, one 2-1 mux.
	mustAdd(Use{Src: reg(0), Sink: fuIn(0, 0), Step: 0})
	mustAdd(Use{Src: reg(1), Sink: fuIn(0, 0), Step: 1})
	// fu0.b fed by R2 only: no mux.
	mustAdd(Use{Src: reg(2), Sink: fuIn(0, 1), Step: 0})
	// R3.in fed by fu0 three times and R0 once: fanin 2, one mux.
	mustAdd(Use{Src: fu(0), Sink: regIn(3), Step: 1})
	mustAdd(Use{Src: fu(0), Sink: regIn(3), Step: 2})
	mustAdd(Use{Src: reg(0), Sink: regIn(3), Step: 3})
	if got := ic.MuxCost(); got != 2 {
		t.Errorf("MuxCost = %d, want 2", got)
	}
	if got := ic.Connections(); got != 5 {
		t.Errorf("Connections = %d, want 5", got)
	}
	if got := ic.FaninOf(fuIn(0, 0)); got != 2 {
		t.Errorf("FaninOf(fu0.a) = %d, want 2", got)
	}
}

func TestConstSourcesAreFree(t *testing.T) {
	ic := newTestInterconnect()
	k := Source{Kind: SrcConst, Index: 42}
	if err := ic.AddUse(Use{Src: k, Sink: fuIn(0, 1), Step: 0}); err != nil {
		t.Fatal(err)
	}
	if err := ic.AddUse(Use{Src: reg(0), Sink: fuIn(0, 1), Step: 1}); err != nil {
		t.Fatal(err)
	}
	if got := ic.MuxCost(); got != 0 {
		t.Errorf("MuxCost = %d, want 0 (constants are cost-free)", got)
	}
	if got := ic.Connections(); got != 1 {
		t.Errorf("Connections = %d, want 1", got)
	}
}

func TestConflictDetected(t *testing.T) {
	ic := newTestInterconnect()
	if err := ic.AddUse(Use{Src: reg(0), Sink: regIn(1), Step: 3}); err != nil {
		t.Fatal(err)
	}
	if err := ic.AddUse(Use{Src: reg(2), Sink: regIn(1), Step: 3}); err == nil {
		t.Error("AddUse accepted two sources for one sink in the same step")
	}
	// The same source again is fine.
	if err := ic.AddUse(Use{Src: reg(0), Sink: regIn(1), Step: 3}); err != nil {
		t.Errorf("AddUse rejected a repeated identical use: %v", err)
	}
}

func TestMergeMuxesSharesSources(t *testing.T) {
	// Figure-3 flavor: two sinks with identical {R0,R1} sources, used in
	// disjoint steps -> one merged mux of cost 1 instead of 2.
	ic := newTestInterconnect()
	adds := []Use{
		{Src: reg(0), Sink: fuIn(0, 0), Step: 0},
		{Src: reg(1), Sink: fuIn(0, 0), Step: 1},
		{Src: reg(0), Sink: regIn(2), Step: 2},
		{Src: reg(1), Sink: regIn(2), Step: 3},
	}
	for _, u := range adds {
		if err := ic.AddUse(u); err != nil {
			t.Fatal(err)
		}
	}
	if got := ic.MuxCost(); got != 2 {
		t.Fatalf("MuxCost = %d, want 2", got)
	}
	if got := ic.MergedMuxCost(); got != 1 {
		t.Errorf("MergedMuxCost = %d, want 1", got)
	}
	muxes := ic.MergeMuxes()
	if len(muxes) != 1 || len(muxes[0].Sinks) != 2 {
		t.Errorf("MergeMuxes = %+v, want one mux with two sinks", muxes)
	}
}

func TestMergeRespectsStepConflicts(t *testing.T) {
	// Same source sets but both needed in step 0 with different sources:
	// cannot merge.
	ic := newTestInterconnect()
	adds := []Use{
		{Src: reg(0), Sink: fuIn(0, 0), Step: 0},
		{Src: reg(1), Sink: fuIn(0, 0), Step: 1},
		{Src: reg(1), Sink: regIn(2), Step: 0},
		{Src: reg(0), Sink: regIn(2), Step: 1},
	}
	for _, u := range adds {
		if err := ic.AddUse(u); err != nil {
			t.Fatal(err)
		}
	}
	if got := ic.MergedMuxCost(); got != 2 {
		t.Errorf("MergedMuxCost = %d, want 2 (step conflict)", got)
	}
}

func TestMergeSkipsDisjointSources(t *testing.T) {
	// Disjoint source sets must not merge even when steps are
	// compatible: the union would cost more.
	ic := newTestInterconnect()
	adds := []Use{
		{Src: reg(0), Sink: fuIn(0, 0), Step: 0},
		{Src: reg(1), Sink: fuIn(0, 0), Step: 1},
		{Src: reg(2), Sink: regIn(3), Step: 2},
		{Src: reg(4), Sink: regIn(3), Step: 3},
	}
	for _, u := range adds {
		if err := ic.AddUse(u); err != nil {
			t.Fatal(err)
		}
	}
	if got := ic.MergedMuxCost(); got != 2 {
		t.Errorf("MergedMuxCost = %d, want 2 (disjoint sources)", got)
	}
}

func TestSourceSinkStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{fu(3).String(), "fu3"},
		{reg(2).String(), "R2"},
		{Source{Kind: SrcInput, Index: 0}.String(), "in0"},
		{Source{Kind: SrcConst, Index: 7}.String(), "const7"},
		{fuIn(1, 0).String(), "fu1.a"},
		{fuIn(1, 1).String(), "fu1.b"},
		{regIn(4).String(), "R4.in"},
		{Sink{Kind: SinkOutput, Index: 2}.String(), "out2"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

// randomInterconnect builds a conflict-free random use set.
func randomInterconnect(seed int64) *Interconnect {
	rng := rand.New(rand.NewSource(seed))
	ic := newTestInterconnect()
	taken := make(map[Sink]map[int]Source)
	nSinks := 2 + rng.Intn(8)
	for s := 0; s < nSinks; s++ {
		var sink Sink
		if rng.Intn(2) == 0 {
			sink = fuIn(rng.Intn(3), rng.Intn(2))
		} else {
			sink = regIn(rng.Intn(6))
		}
		for t := 0; t < 8; t++ {
			if rng.Intn(2) == 0 {
				continue
			}
			var src Source
			if rng.Intn(2) == 0 {
				src = reg(rng.Intn(5))
			} else {
				src = fu(rng.Intn(3))
			}
			// Keep one source per (sink, step): the same sink may be
			// drawn twice, so remember prior assignments.
			if taken[sink] == nil {
				taken[sink] = make(map[int]Source)
			}
			if prev, ok := taken[sink][t]; ok && prev != src {
				continue
			}
			taken[sink][t] = src
			if err := ic.AddUse(Use{Src: src, Sink: sink, Step: t}); err != nil {
				panic(err)
			}
		}
	}
	return ic
}

func TestPropertyMergingNeverIncreasesCost(t *testing.T) {
	f := func(seed int64) bool {
		ic := randomInterconnect(seed)
		return ic.MergedMuxCost() <= ic.MuxCost()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMergedMuxesCoverAllMultiSourceSinks(t *testing.T) {
	f := func(seed int64) bool {
		ic := randomInterconnect(seed)
		want := 0
		for _, s := range ic.Sinks() {
			if ic.FaninOf(s) > 1 {
				want++
			}
		}
		got := 0
		for _, m := range ic.MergeMuxes() {
			got += len(m.Sinks)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestNetScratchMatchesInterconnect replays random use sequences into
// one sink of a fresh Interconnect and into a reused NetScratch: both
// must reject the same use with the same error, and otherwise agree on
// every Has probe and on the sink's multiplexer cost. The scratch is
// reused across sequences, so no need of an earlier sequence may leak
// into a later one, also when the generation stamp wraps.
func TestNetScratchMatchesInterconnect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sink := Sink{Kind: SinkReg, Index: 1}
	var ns NetScratch
	ns.Reset()
	if err := ns.Add(sink, Source{Kind: SrcReg, Index: 0}, 3); err != nil {
		t.Fatal(err)
	}
	ns.gen = ^uint32(0) // the next Reset wraps the stamp back to the first one
	ns.Reset()
	if err := ns.Add(sink, Source{Kind: SrcReg, Index: 2}, 3); err != nil {
		t.Fatalf("a need from before the stamp wrapped leaked: %v", err)
	}
	for seq := 0; seq < 500; seq++ {
		ns.Reset()
		ic := NewInterconnect(SinkSpace{FUs: 2, Regs: 3, Outs: 1}, 12)
		for use := 0; use < 1+rng.Intn(8); use++ {
			src := Source{Kind: SourceKind(rng.Intn(4)), Index: rng.Intn(3)}
			step := rng.Intn(12)
			if got, want := ns.Has(src), ic.HasSource(sink, src); got != want {
				t.Fatalf("seq %d use %d: Has(%v) = %t, Interconnect %t", seq, use, src, got, want)
			}
			gerr := ns.Add(sink, src, step)
			werr := ic.AddUse(Use{Src: src, Sink: sink, Step: step})
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("seq %d use %d: Add error %v, AddUse error %v", seq, use, gerr, werr)
			}
			if gerr != nil {
				break
			}
			if got, want := ns.MuxCost(), ic.MuxCost(); got != want {
				t.Fatalf("seq %d use %d: MuxCost %d, Interconnect %d", seq, use, got, want)
			}
		}
	}
}
