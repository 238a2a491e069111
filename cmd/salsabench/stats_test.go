package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	// millis holds 1..n ms; the histogram must place a quantile within
	// a bucket (0.27%) of the exact nearest-rank value.
	millis := func(n int) *hist {
		h := new(hist)
		for i := n; i >= 1; i-- {
			h.add(time.Duration(i) * time.Millisecond)
		}
		return h
	}
	near := func(got float64, wantMS float64) bool { return math.Abs(got/1e6-wantMS) <= wantMS*0.003 }

	v, n, err := percentile(millis(1000), 0.99)
	if err != nil || n != 1000 || !near(v, 990) {
		t.Fatalf("p99 of 1..1000 ms = %v ns over %d samples (%v), want 990 ms over 1000", v, n, err)
	}
	if _, n, err := percentile(millis(999), 0.99); err == nil || n != 999 {
		t.Fatalf("p99 of 999 samples leaves 9 above it: err %v, n %d", err, n)
	}
	if v, _, err := percentile(millis(20), 0.5); err != nil || !near(v, 10) {
		t.Fatalf("p50 of 1..20 ms = %v ns (%v), want 10 ms", v, err)
	}
	if _, _, err := percentile(millis(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples leaves 9 above it and must be refused")
	}
	if new(hist).median() != 0 || median(nil) != 0 || median([]float64{3, 1, 2}) != 2 {
		t.Fatal("median")
	}
}

// TestTailWindows checks that the p99 is the p25 of the p99s of full
// windows: two windows swollen by interference and the last, partial
// window leave it alone.
func TestTailWindows(t *testing.T) {
	var w tailWindows
	if _, n, err := w.p99(); err == nil || n != 0 {
		t.Fatalf("p99 without a full window: n %d, err %v; want an error", n, err)
	}
	// Window i holds 1..windowOps µs times scale[i]; its p99 is
	// 990 µs times that.
	scale := []float64{1, 4, 1.2, 1.1, 6, 1.3, 1.05, 1.15}
	for _, f := range scale {
		for i := windowOps; i >= 1; i-- {
			w.add(time.Duration(float64(i) * f * float64(time.Microsecond)))
		}
	}
	for i := 0; i < windowOps/2; i++ {
		w.add(time.Second)
	}
	got, n, err := w.p99()
	if want := 1.05 * 990 * float64(time.Microsecond); err != nil || n != len(scale) || math.Abs(got-want) > 10 {
		t.Fatalf("p99 = %v ns over %d windows (%v), want %v over %d", got, n, err, want, len(scale))
	}
}

// TestTallyKeepsFailuresOutOfLatency checks that a failed op, however
// fast, counts as failed and leaves every latency histogram alone.
func TestTallyKeepsFailuresOutOfLatency(t *testing.T) {
	var tl tally
	tl.add(opRec{lat: time.Millisecond, ok: true, cache: cacheHit}, nil)
	tl.add(opRec{lat: time.Microsecond, cache: cacheMiss}, errors.New("POST /allocate: status 429"))
	if tl.ok != 1 || tl.failed != 1 || len(tl.failures) != 1 {
		t.Fatalf("ok %d, failed %d, failures %q; want 1, 1 and one failure", tl.ok, tl.failed, tl.failures)
	}
	if tl.lat.n != 1 || tl.hit.n != 1 || tl.miss.n != 0 {
		t.Fatalf("latency samples: all %d, hit %d, miss %d; want 1, 1, 0", tl.lat.n, tl.hit.n, tl.miss.n)
	}
	if r := (runResult{attempted: 2, failed: 1}); r.correct() {
		t.Fatal("a run with a failed op counts as correct")
	}
}

func TestHostSlowness(t *testing.T) {
	ref := float64(hostRef)
	if got := hostSlowness([]float64{4 * ref, ref / 2, 2 * ref, ref}); got != 0.5 {
		t.Fatalf("slowness of kernel times with p25 at half the reference = %v, want 0.5", got)
	}
	s := sampleHost()
	first := s.stop()
	if len(first) == 0 || len(s.stop()) != len(first) {
		t.Fatalf("sampler returned %d kernel times, then %d; want at least one, twice the same", len(first), len(s.stop()))
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{trace: 1, id: 1, name: "engine.run", start: 0, end: 100},
		// Overlapping siblings, as engine.job spans of a two-worker run.
		{trace: 1, id: 2, parent: 1, name: "engine.job", start: 10, end: 50},
		{trace: 1, id: 3, parent: 1, name: "engine.job", start: 30, end: 70},
		// Reaches past its parent: only the part inside counts.
		{trace: 1, id: 4, parent: 1, name: "engine.job", start: 90, end: 120},
		{trace: 1, id: 5, parent: 2, name: "inner", start: 20, end: 25},
		// Same ids in another trace must not be taken for children.
		{trace: 2, id: 6, parent: 1, name: "other", start: 0, end: 100},
	}
	want := []int64{100 - 60 - 10, 40 - 5, 40, 30, 5, 100}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].name, got, want[i])
		}
	}
}

// TestReplayStagesCoverReplay checks that the replay's stage spans
// account for its time: the root's own self time is under 5% of it.
func TestReplayStagesCoverReplay(t *testing.T) {
	corpus := testCorpus(t)
	for g := range corpus {
		if name := corpus[g].name; name != "ewf" && name != "figure1" {
			continue
		}
		tr := newTracer()
		tb := tr.buffer()
		wire, err := requestBody(corpus, key{graph: g, seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		_, root, err := replay(tb, wire)
		tb.finish(root)
		if err != nil {
			t.Fatal(err)
		}
		spans := tr.spans()
		self := selfTimes(spans)
		var children int64
		for i := range spans {
			if i != int(root) {
				children += self[i]
			}
		}
		dur := spans[root].end - spans[root].start
		if children < dur*95/100 || children > dur {
			t.Errorf("%s: stage self times sum to %d ns of a %d ns replay", corpus[g].name, children, dur)
		}
	}
}
