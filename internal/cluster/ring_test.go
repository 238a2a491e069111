package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"salsa/internal/cdfg"
)

// TestRingEmpty covers the degenerate ring: no members, no owners,
// empty failover sequences — and no panics.
func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 0)
	if r.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", r.Len())
	}
	if m, ok := r.Owner("anything"); ok {
		t.Fatalf("Owner on empty ring = %q, ok=true; want ok=false", m)
	}
	if seq := r.Sequence("anything"); len(seq) != 0 {
		t.Fatalf("Sequence on empty ring = %v, want empty", seq)
	}
}

// TestRingSingleBackend: with one member, every key maps to it and the
// failover sequence is exactly that member.
func TestRingSingleBackend(t *testing.T) {
	r := NewRing([]string{"http://a"}, 0)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("fp-%d", i)
		m, ok := r.Owner(key)
		if !ok || m != "http://a" {
			t.Fatalf("Owner(%q) = %q, %t; want http://a, true", key, m, ok)
		}
		seq := r.Sequence(key)
		if len(seq) != 1 || seq[0] != "http://a" {
			t.Fatalf("Sequence(%q) = %v, want [http://a]", key, seq)
		}
	}
}

// TestRingJoinOrderIndependence: the key→shard map is a pure function
// of the member set — listing order and duplicates must not move a
// single key. This is what makes re-homing deterministic: any router
// instance that observes the same healthy set routes identically.
func TestRingJoinOrderIndependence(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c", "http://d"}
	permutations := [][]string{
		{"http://a", "http://b", "http://c", "http://d"},
		{"http://d", "http://c", "http://b", "http://a"},
		{"http://c", "http://a", "http://d", "http://b"},
		// Duplicates collapse.
		{"http://b", "http://b", "http://a", "http://d", "http://c", "http://a"},
	}
	ref := NewRing(members, 0)
	for pi, perm := range permutations {
		r := NewRing(perm, 0)
		if r.Len() != len(members) {
			t.Fatalf("permutation %d: Len() = %d, want %d", pi, r.Len(), len(members))
		}
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("fingerprint-%d", i)
			want, _ := ref.Owner(key)
			got, _ := r.Owner(key)
			if got != want {
				t.Fatalf("permutation %d: Owner(%q) = %q, want %q (join order moved a key)", pi, key, got, want)
			}
		}
	}
}

// TestRingSequence checks the failover order's structural properties:
// starts at the owner, visits every distinct member exactly once, and
// removing the owner re-homes each key onto its old second choice.
func TestRingSequence(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c"}
	r := NewRing(members, 0)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("fp-%d", i)
		seq := r.Sequence(key)
		if len(seq) != len(members) {
			t.Fatalf("Sequence(%q) = %v, want %d distinct members", key, seq, len(members))
		}
		owner, _ := r.Owner(key)
		if seq[0] != owner {
			t.Fatalf("Sequence(%q)[0] = %q, want owner %q", key, seq[0], owner)
		}
		seen := map[string]bool{}
		for _, m := range seq {
			if seen[m] {
				t.Fatalf("Sequence(%q) repeats %q: %v", key, m, seq)
			}
			seen[m] = true
		}

		// Re-homing determinism: drop the owner, and the surviving ring's
		// owner for this key must be the old sequence's second choice.
		var survivors []string
		for _, m := range members {
			if m != owner {
				survivors = append(survivors, m)
			}
		}
		rehomed, _ := NewRing(survivors, 0).Owner(key)
		if rehomed != seq[1] {
			t.Fatalf("key %q: removing owner %q re-homed to %q, want old second choice %q",
				key, owner, rehomed, seq[1])
		}
	}
}

// quickstartBackends are the backend names of the README's 3-backend
// quickstart, which salsabench's routed-zipf also places its keys over.
var quickstartBackends = []string{"http://127.0.0.1:8081", "http://127.0.0.1:8082", "http://127.0.0.1:8083"}

// TestRingBalance: every member's share of random keys lies within one
// percentage point of 1/N, for sets of near-identical names, which a
// hash that spreads similar inputs poorly splits unevenly. The sets
// are 2–8 hosts of one subnet, the README quickstart's backends (which
// salsabench's routed-zipf uses) and five short names.
func TestRingBalance(t *testing.T) {
	var sets [][]string
	for n := 2; n <= 8; n++ {
		var set []string
		for i := 1; i <= n; i++ {
			set = append(set, fmt.Sprintf("http://10.0.0.%d:8080", i))
		}
		sets = append(sets, set)
	}
	sets = append(sets, quickstartBackends, []string{"b1", "b2", "b3", "b4", "b5"})

	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 100000)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x%016x%016x%016x", rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64())
	}
	for _, set := range sets {
		r := NewRing(set, 0)
		counts := map[string]int{}
		for _, k := range keys {
			m, _ := r.Owner(k)
			counts[m]++
		}
		want := 100 / float64(len(set))
		for _, m := range set {
			if share := 100 * float64(counts[m]) / float64(len(keys)); math.Abs(share-want) > 1 {
				t.Errorf("%d members: %s owns %.1f%% of %d keys, want %.1f±1%%", len(set), m, share, len(keys), want)
			}
		}
	}
}

// TestCorpusFitsBackendCaches places the testdata corpus over the
// README quickstart's three backends, which salsabench's routed-zipf
// runs behind the router, and requires at most 5 graphs per backend.
// routed-zipf requests 48 seeds of every graph, and each backend keeps
// 256 results, so 6 graphs on one backend (288 keys) make its cache
// evict: full searches return to the timed phase, and throughput falls
// (cmd/salsabench/README.md). A change to the placement score or to
// the corpus must keep this fit.
func TestCorpusFitsBackendCaches(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus graphs in testdata")
	}
	r := NewRing(quickstartBackends, 0)
	placed := map[string][]string{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		g, err := cdfg.ParseJSON(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		owner, _ := r.Owner(g.Fingerprint())
		placed[owner] = append(placed[owner], g.Name)
	}
	for owner, graphs := range placed {
		if len(graphs) > 5 {
			t.Errorf("%s owns %d of %d corpus graphs %v, want at most 5", owner, len(graphs), len(files), graphs)
		}
	}
	t.Logf("placement: %v", placed)
}
