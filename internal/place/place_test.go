package place

import (
	"math/rand"
	"testing"
	"testing/quick"

	"salsa/internal/cdfg"
	"salsa/internal/core"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
	"salsa/internal/workloads"
)

func icOf(t *testing.T, name string) *datapath.Interconnect {
	t.Helper()
	g := workloads.All()[name]()
	d := cdfg.DefaultDelays(false)
	a, lim, err := lifetime.MinFUAnalysis(g, d, g.CriticalPath(d)+2)
	if err != nil {
		t.Fatal(err)
	}
	var inputs []string
	for i := range g.Nodes {
		if g.Nodes[i].Op == cdfg.Input {
			inputs = append(inputs, g.Nodes[i].Name)
		}
	}
	hw := datapath.NewHardware(lim, a.MinRegs+1, inputs, true)
	o := core.SALSAOptions(1)
	o.MovesPerTrial = 200
	o.MaxTrials = 4
	res, err := core.Allocate(a, hw, o)
	if err != nil {
		t.Fatal(err)
	}
	ic, _, err := res.Binding.Eval()
	if err != nil {
		t.Fatal(err)
	}
	return ic
}

func TestLinearPlacesAllModules(t *testing.T) {
	ic := icOf(t, "diffeq")
	p := Linear(ic)
	if len(p.Order) == 0 {
		t.Fatal("no modules placed")
	}
	seen := make(map[Module]bool)
	for i, m := range p.Order {
		if seen[m] {
			t.Errorf("module %v placed twice", m)
		}
		seen[m] = true
		if p.SlotOf[m] != i {
			t.Errorf("SlotOf inconsistent for %v", m)
		}
	}
	if p.WireLength <= 0 {
		t.Errorf("WireLength = %d, want positive", p.WireLength)
	}
}

func TestLinearDeterministic(t *testing.T) {
	ic := icOf(t, "arf")
	p1 := Linear(ic)
	p2 := Linear(ic)
	if p1.WireLength != p2.WireLength || len(p1.Order) != len(p2.Order) {
		t.Fatal("Linear is not deterministic")
	}
	for i := range p1.Order {
		if p1.Order[i] != p2.Order[i] {
			t.Fatal("orders differ")
		}
	}
}

func TestLinearEmpty(t *testing.T) {
	p := Linear(datapath.NewInterconnect(datapath.SinkSpace{}, 0))
	if len(p.Order) != 0 || p.WireLength != 0 {
		t.Errorf("empty placement: %+v", p)
	}
}

// TestLinearBeatsIdentityOrdering: the optimized arrangement must never
// be worse than the trivial declaration ordering.
func TestLinearBeatsIdentityOrdering(t *testing.T) {
	for _, name := range []string{"diffeq", "arf", "fir8", "ewf"} {
		ic := icOf(t, name)
		p := Linear(ic)
		identity := wireLengthOf(ic, identityOrder(p))
		if p.WireLength > identity {
			t.Errorf("%s: optimized %d worse than identity %d", name, p.WireLength, identity)
		}
		t.Logf("%s: identity=%d optimized=%d (%d swaps)", name, identity, p.WireLength, p.Swaps)
	}
}

func identityOrder(p *Placement) []Module {
	out := append([]Module(nil), p.Order...)
	// Deterministic canonical order: kind, then index.
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if lessMod(out[j], out[i]) {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func wireLengthOf(ic *datapath.Interconnect, order []Module) int {
	slot := make(map[Module]int)
	for i, m := range order {
		slot[m] = i
	}
	total := 0
	for _, sink := range ic.Sinks() {
		var dst Module
		switch sink.Kind {
		case datapath.SinkFUPort:
			dst = Module{datapath.SrcFU, sink.Index}
		case datapath.SinkReg:
			dst = Module{datapath.SrcReg, sink.Index}
		default:
			continue
		}
		for _, src := range ic.SourcesOf(sink) {
			if src.Kind != datapath.SrcFU && src.Kind != datapath.SrcReg {
				continue
			}
			s := Module{src.Kind, src.Index}
			if s == dst {
				continue
			}
			d := slot[s] - slot[dst]
			if d < 0 {
				d = -d
			}
			total += d
		}
	}
	return total
}

// TestPropertySwapDescentIsLocalOptimum: no single swap of the returned
// order improves the wire length.
func TestPropertySwapDescentIsLocalOptimum(t *testing.T) {
	f := func(seed int64) bool {
		// Random small interconnects via random uses.
		rng := rand.New(rand.NewSource(seed))
		ic := datapath.NewInterconnect(datapath.SinkSpace{FUs: 3, Regs: 4}, 30)
		for k := 0; k < 10+rng.Intn(20); k++ {
			src := datapath.Source{Kind: datapath.SrcReg, Index: rng.Intn(4)}
			if rng.Intn(2) == 0 {
				src = datapath.Source{Kind: datapath.SrcFU, Index: rng.Intn(3)}
			}
			sink := datapath.Sink{Kind: datapath.SinkReg, Index: rng.Intn(4)}
			if rng.Intn(2) == 0 {
				sink = datapath.Sink{Kind: datapath.SinkFUPort, Index: rng.Intn(3), Port: rng.Intn(2)}
			}
			// Unique steps avoid conflicts.
			if err := ic.AddUse(datapath.Use{Src: src, Sink: sink, Step: k}); err != nil {
				return true // skip conflicting draws
			}
		}
		p := Linear(ic)
		base := wireLengthOf2(ic, p.Order)
		for i := 0; i < len(p.Order); i++ {
			for j := i + 1; j < len(p.Order); j++ {
				order := append([]Module(nil), p.Order...)
				order[i], order[j] = order[j], order[i]
				if wireLengthOf2(ic, order) < base {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// wireLengthOf2 counts with edge multiplicity exactly as Linear does.
func wireLengthOf2(ic *datapath.Interconnect, order []Module) int {
	return wireLengthOf(ic, order)
}
