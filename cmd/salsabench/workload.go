package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"salsa/internal/cdfg"
	"salsa/internal/service"
)

// graphEntry is one corpus graph as the benchmark sends it.
type graphEntry struct {
	name        string
	raw         json.RawMessage // the corpus file's bytes
	fingerprint string
}

// loadCorpus reads every *.json graph in dir, in file-name order.
func loadCorpus(dir string) ([]graphEntry, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	sort.Strings(files)
	var out []graphEntry
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		g, err := cdfg.ParseJSON(data)
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", f, err)
		}
		out = append(out, graphEntry{name: g.Name, raw: data, fingerprint: g.Fingerprint()})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("corpus: no *.json graphs in %s", dir)
	}
	return out, nil
}

// findCorpus returns the nearest testdata/ directory holding the corpus
// at or above the working directory, so the benchmark runs both from
// the repository root and from its own package directory.
func findCorpus() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		cand := filepath.Join(dir, "testdata")
		if _, err := os.Stat(filepath.Join(cand, "ewf.json")); err == nil {
			return cand, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no testdata/ corpus at or above the working directory")
		}
		dir = parent
	}
}

// key is one distinct request: a corpus graph and a search seed. With
// every other field at its default, the service's content address is a
// function of exactly these two.
type key struct {
	graph int
	seed  int64
}

// requestBody renders the wire request for k: salsa mode, 3 restarts
// and the schedule defaults.
func requestBody(corpus []graphEntry, k key) ([]byte, error) {
	return json.Marshal(service.AllocateRequest{Graph: corpus[k.graph].raw, Seed: k.seed})
}

// plan is a workload's seeded request stream, drawn as the clients send.
type plan struct {
	// keys is the workload's finite key space in popularity order, or nil
	// when every request is a new key.
	keys []key
	// next returns the next request. It is not safe for concurrent use.
	next func() key
}

// hotSeeds are the search seeds of the hot set that warm-repeat and
// jobs-durable draw from, and of the keys cold-unique prewarms with.
var hotSeeds = []int64{1, 2}

// coldSeedBase keeps cold-unique's search seeds clear of hotSeeds.
const coldSeedBase = 1000

// zipfSeeds is the number of search seeds per graph in routed-zipf's
// key space, and zipfS its popularity exponent. The 384 keys exceed the
// router's 256-entry cache, while the keys any backend owns fit its own
// 256 entries: the ring gives one backend 5 of the 8 graphs, 240 keys.
// With 64 seeds that backend evicted, and the timed phase ran a full
// search for about one op in a hundred, taking 40% of the clients' time
// and making throughput and latencies depend on which graphs missed.
const (
	zipfSeeds = 48
	zipfS     = 1.1
)

// everyGraph returns one key per (graph, seed), graph-major.
func everyGraph(graphs int, seeds []int64) []key {
	out := make([]key, 0, graphs*len(seeds))
	for g := 0; g < graphs; g++ {
		for _, s := range seeds {
			out = append(out, key{graph: g, seed: s})
		}
	}
	return out
}

// coldPlan sends distinct keys only, so every request misses the cache.
// Each block of `graphs` consecutive requests holds every graph once,
// in seeded order, and a graph's j-th request has search seed
// coldSeedBase+j whatever the seed. A run of fixed length thus searches
// nearly the same allocation problems for every seed: the search effort
// of one problem varies by a factor of two between search seeds, and
// the seed is left to vary only how the problems pair up between the
// two clients.
func coldPlan(seed int64, graphs int) plan {
	rng := rand.New(rand.NewSource(seed))
	var block []int
	sent := 0
	return plan{next: func() key {
		if len(block) == 0 {
			block = rng.Perm(graphs)
		}
		k := key{graph: block[0], seed: coldSeedBase + int64(sent/graphs)}
		block = block[1:]
		sent++
		return k
	}}
}

// hotPlan draws requests uniformly from the hot set: every graph with
// every one of hotSeeds.
func hotPlan(seed int64, graphs int) plan {
	rng := rand.New(rand.NewSource(seed))
	keys := everyGraph(graphs, hotSeeds)
	return plan{keys: keys, next: func() key { return keys[rng.Intn(len(keys))] }}
}

// zipfPlan draws requests from graphs×zipfSeeds keys with Zipf(zipfS)
// popularity. keys is in rank order, and rank r is a key of graph
// r mod graphs whatever the seed: the top ranks carry much of the
// traffic (rank 0 a fifth), so a seed that picked their graphs
// would pick the cost of a typical op. The seed orders each graph's
// search seeds over its ranks and drives the draws.
func zipfPlan(seed int64, graphs int) plan {
	rng := rand.New(rand.NewSource(seed))
	seedOrder := make([][]int, graphs)
	for g := range seedOrder {
		seedOrder[g] = rng.Perm(zipfSeeds)
	}
	keys := make([]key, 0, graphs*zipfSeeds)
	for b := 0; b < zipfSeeds; b++ {
		for g := 0; g < graphs; g++ {
			keys = append(keys, key{graph: g, seed: int64(seedOrder[g][b] + 1)})
		}
	}
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1))
	return plan{keys: keys, next: func() key { return keys[z.Uint64()] }}
}

// workload is one traffic mix of the benchmark.
type workload struct {
	name string
	// clients is the number of closed-loop load goroutines, each with
	// one keep-alive connection.
	clients int
	// backends is the number of salsad instances; more than one puts
	// the cluster router in front of them.
	backends int
	// jobs makes an op POST /jobs plus polls against a journaled salsad.
	jobs bool
	plan func(seed int64, graphs int) plan
	// prewarm holds the search seeds that every graph is requested with
	// during setup, before the timed phase.
	prewarm []int64
	// fill requests every key of the key space once after setup, untimed,
	// so that the timed phase sees the caches' steady state rather than a
	// stream of first requests.
	fill bool
}

// workloads is the benchmark's workload set; BENCHMARK.json says why
// each one is there.
var workloads = []workload{
	{name: "cold-unique", clients: 2, backends: 1, plan: coldPlan, prewarm: hotSeeds},
	// One client: on a shared 2-core machine two clients of
	// sub-millisecond hits swing far more from run to run.
	{name: "warm-repeat", clients: 1, backends: 1, plan: hotPlan, prewarm: hotSeeds},
	// Prewarmed with seeds outside 1..zipfSeeds, so the prewarm warms
	// the code paths without touching the key space, which the fill then
	// requests once. Unfilled, the timed phase would spend most of its
	// time on first requests, each a full search, and a slower machine
	// would fit disproportionately fewer hits around the same searches.
	{name: "routed-zipf", clients: 2, backends: 3, plan: zipfPlan, prewarm: []int64{zipfSeeds + 1, zipfSeeds + 2}, fill: true},
	{name: "jobs-durable", clients: 2, backends: 1, jobs: true, plan: hotPlan, prewarm: hotSeeds},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
