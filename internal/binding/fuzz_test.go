package binding

import (
	"math/rand"
	"testing"
	"testing/quick"

	"salsa/internal/cdfg"
	"salsa/internal/datapath"
	"salsa/internal/lifetime"
	"salsa/internal/sched"
)

// buildRandomBound constructs a random DAG, schedules it, and produces
// a trivially legal binding (ops first-fit, values first-fit) to fuzz
// against.
func buildRandomBound(seed int64) (*Binding, bool) {
	rng := rand.New(rand.NewSource(seed))
	g := cdfg.New("fuzz")
	var pool []cdfg.NodeID
	for i := 0; i < 3+rng.Intn(3); i++ {
		pool = append(pool, g.Input(""))
	}
	n := 4 + rng.Intn(16)
	for i := 0; i < n; i++ {
		a := pool[rng.Intn(len(pool))]
		bb := pool[rng.Intn(len(pool))]
		var id cdfg.NodeID
		switch rng.Intn(3) {
		case 0:
			id = g.Add("", a, bb)
		case 1:
			id = g.Sub("", a, bb)
		default:
			id = g.Mul("", a, bb)
		}
		pool = append(pool, id)
	}
	g.Output("o", pool[len(pool)-1])

	d := cdfg.DefaultDelays(rng.Intn(2) == 0)
	s, lim := sched.MinFUSchedule(g, d, g.CriticalPath(d)+rng.Intn(4))
	if s == nil {
		return nil, false
	}
	a, err := lifetime.Analyze(s)
	if err != nil {
		return nil, false
	}
	var inputs []string
	for i := range g.Nodes {
		if g.Nodes[i].Op == cdfg.Input {
			inputs = append(inputs, g.Nodes[i].Name)
		}
	}
	hw := datapath.NewHardware(lim, a.MinRegs+1+rng.Intn(2), inputs, true)
	b := New(a, hw)

	// First-fit FU binding.
	busy := make([][]bool, len(hw.FUs))
	for f := range busy {
		busy[f] = make([]bool, s.Steps)
	}
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		if !nd.Op.IsArith() {
			continue
		}
		ii := d.IIOf(nd.Op)
		for _, f := range hw.FUsOfClass(sched.ClassOf(nd.Op)) {
			ok := true
			for t := s.Start[i]; t < s.Start[i]+ii; t++ {
				if busy[f][t] {
					ok = false
					break
				}
			}
			if ok {
				b.OpFU[i] = f
				for t := s.Start[i]; t < s.Start[i]+ii; t++ {
					busy[f][t] = true
				}
				break
			}
		}
	}
	// First-fit piecewise register binding.
	occ := make([][]bool, len(hw.Regs))
	for r := range occ {
		occ[r] = make([]bool, a.StorageSteps)
	}
	for vi := range a.Values {
		v := &a.Values[vi]
		for k := 0; k < v.Len; k++ {
			t := v.StepAt(k, a.StorageSteps)
			for r := range occ {
				if !occ[r][t] {
					b.SegReg[vi][k] = r
					occ[r][t] = true
					break
				}
			}
		}
	}
	if b.Check() != nil {
		return nil, false
	}
	return b, true
}

func TestPropertyEvalDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		b, ok := buildRandomBound(seed)
		if !ok {
			return true // skip degenerate draws
		}
		_, c1, err1 := b.Eval()
		_, c2, err2 := b.Eval()
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPrunePassIdempotent binds every transfer it can as a
// pass on each of seeds 1–300, then breaks one bound pass: its
// destination segment moves into the register that holds the previous
// position, so the value stays put and the transfer is gone. PrunePass
// must remove at least that pass and leave only passes that name a
// live transfer on a free unit, and a second PrunePass must remove
// nothing. Enough seeds must bind a pass for the check to mean
// something.
func TestPropertyPrunePassIdempotent(t *testing.T) {
	exercised := 0
	for seed := int64(1); seed <= 300; seed++ {
		b, ok := buildRandomBound(seed)
		if !ok {
			continue
		}
		tx, err := NewTx(b)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The transaction keeps the occupancy current, so each pass goes
		// to an FU still free at its step.
		occ, err := tx.FUOcc()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, tk := range b.Transfers() {
			for f := range b.HW.FUs {
				if b.FUPassFree(occ, f, b.transferStep(tk), tk) {
					tx.SetPass(tk, f)
					break
				}
			}
		}
		if b.NumPass() == 0 {
			continue
		}
		exercised++
		broken, _ := tx.NthPass(int(seed) % b.NumPass())
		tx.SetSegReg(broken.V, broken.K, b.SegReg[broken.V][broken.K-1])
		if n := tx.PrunePass(); n == 0 {
			t.Errorf("seed %d: PrunePass kept the pass of %+v, whose transfer is gone", seed, broken)
		}
		if occ, err = tx.FUOcc(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; ; i++ {
			tk, ok := tx.NthPass(i)
			if !ok {
				break
			}
			if f, _ := b.PassOf(tk); !b.isTransfer(tk) || !b.FUPassFree(occ, f, b.transferStep(tk), tk) {
				t.Errorf("seed %d: the pass of %+v on unit %d survived PrunePass", seed, tk, f)
			}
		}
		if n := tx.PrunePass(); n != 0 {
			t.Errorf("seed %d: a second PrunePass removed %d passes", seed, n)
		}
	}
	if exercised < 60 {
		t.Errorf("%d of seeds 1–300 bound a pass, want at least 60", exercised)
	}
}

func TestPropertyCostComponents(t *testing.T) {
	f := func(seed int64) bool {
		b, ok := buildRandomBound(seed)
		if !ok {
			return true
		}
		ic, c, err := b.Eval()
		if err != nil {
			return false
		}
		if c.Total != c.FUArea+Wreg*c.RegsUsed+Wmux*c.MuxCost {
			return false
		}
		if c.MuxCost != ic.MuxCost() {
			return false
		}
		if c.RegsUsed > len(b.HW.Regs) || c.FUsUsed > len(b.HW.FUs) {
			return false
		}
		return ic.MergedMuxCost() <= c.MuxCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
