package datapath

import (
	"testing"
	"testing/quick"
)

func TestBusAllocationSharesQuietSources(t *testing.T) {
	// Two sources transmitting in disjoint steps share one bus; a third
	// overlapping both needs its own.
	ic := newTestInterconnect()
	adds := []Use{
		{Src: reg(0), Sink: fuIn(0, 0), Step: 0},
		{Src: reg(1), Sink: fuIn(0, 0), Step: 1},
		{Src: reg(2), Sink: fuIn(0, 1), Step: 0},
		{Src: reg(2), Sink: fuIn(0, 1), Step: 1},
	}
	for _, u := range adds {
		if err := ic.AddUse(u); err != nil {
			t.Fatal(err)
		}
	}
	ba := ic.AllocateBuses()
	if ba.Buses != 2 {
		t.Errorf("Buses = %d, want 2 (R0/R1 share, R2 alone)", ba.Buses)
	}
	if ba.BusOf[reg(0)] != ba.BusOf[reg(1)] {
		t.Error("disjoint-step sources should share a bus")
	}
	if ba.BusOf[reg(2)] == ba.BusOf[reg(0)] {
		t.Error("overlapping source must not share the bus")
	}
	if ba.Pressure != 2 {
		t.Errorf("Pressure = %d, want 2", ba.Pressure)
	}
	if ba.Drivers != 3 {
		t.Errorf("Drivers = %d, want 3", ba.Drivers)
	}
	// fu0.a selects between two sources now sharing one bus: no mux.
	if ba.MuxCost != 0 {
		t.Errorf("MuxCost = %d, want 0 (bus sharing removed the mux)", ba.MuxCost)
	}
}

func TestBusAllocationConstFree(t *testing.T) {
	ic := newTestInterconnect()
	if err := ic.AddUse(Use{Src: Source{Kind: SrcConst, Index: 1}, Sink: fuIn(0, 1), Step: 0}); err != nil {
		t.Fatal(err)
	}
	ba := ic.AllocateBuses()
	if ba.Buses != 0 || ba.Drivers != 0 || ba.MuxCost != 0 {
		t.Errorf("constants must not allocate buses: %+v", ba)
	}
}

func TestBusAllocationDeterministic(t *testing.T) {
	ic := randomInterconnect(42)
	a := ic.AllocateBuses()
	b := ic.AllocateBuses()
	if a.Buses != b.Buses || a.MuxCost != b.MuxCost {
		t.Error("AllocateBuses is not deterministic")
	}
	for src, bus := range a.BusOf {
		if b.BusOf[src] != bus {
			t.Errorf("source %v: bus %d vs %d", src, bus, b.BusOf[src])
		}
	}
}

// TestPropertyBusesConflictFree: no two sources on one bus ever
// transmit in the same step, and the bus count is at least the
// pressure lower bound.
func TestPropertyBusesConflictFree(t *testing.T) {
	f := func(seed int64) bool {
		ic := randomInterconnect(seed)
		ba := ic.AllocateBuses()
		if ba.Buses < ba.Pressure {
			return false
		}
		// Rebuild per-bus transmission sets and check disjointness.
		busy := make(map[int]map[int]Source)
		for _, sink := range ic.Sinks() {
			for t := 0; t < 64; t++ {
				src, ok := ic.NeedOf(sink, t)
				if !ok || src.Kind == SrcConst {
					continue
				}
				b := ba.BusOf[src]
				if busy[b] == nil {
					busy[b] = make(map[int]Source)
				}
				if prev, ok := busy[b][t]; ok && prev != src {
					return false // two sources drive one bus in one step
				}
				busy[b][t] = src
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBusMuxNeverWorseThanFanin: a sink's bus-side fanin never
// exceeds its point-to-point fanin (buses only ever coalesce sources).
func TestPropertyBusMuxNeverWorseThanFanin(t *testing.T) {
	f := func(seed int64) bool {
		ic := randomInterconnect(seed)
		ba := ic.AllocateBuses()
		return ba.MuxCost <= ic.MuxCost()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}
