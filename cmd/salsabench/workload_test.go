package main

import (
	"bytes"
	"testing"
)

func testCorpus(t *testing.T) []graphEntry {
	t.Helper()
	dir, err := findCorpus()
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := loadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 8 {
		t.Fatalf("corpus has %d graphs, want the 8 of testdata/", len(corpus))
	}
	return corpus
}

// draw returns the first n requests of p.
func draw(p plan, n int) []key {
	out := make([]key, n)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

// requestList renders the first n requests of p as the wire requests
// the clients send, in order.
func requestList(t *testing.T, corpus []graphEntry, p plan, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, k := range draw(p, n) {
		body, err := requestBody(corpus, k)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestPlansAreSeeded(t *testing.T) {
	corpus := testCorpus(t)
	for _, w := range workloads {
		a := requestList(t, corpus, w.plan(1, len(corpus)), 1200)
		b := requestList(t, corpus, w.plan(1, len(corpus)), 1200)
		c := requestList(t, corpus, w.plan(2, len(corpus)), 1200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different request lists", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", w.name)
		}
	}
}

func TestColdPlanIsStratifiedAndUnique(t *testing.T) {
	const graphs, n = 8, 1200
	p := coldPlan(7, graphs)
	if p.keys != nil {
		t.Fatalf("cold-unique has a finite key space of %d keys", len(p.keys))
	}
	perGraph := make([]int, graphs)
	seen := make(map[key]bool)
	for i, k := range draw(p, n) {
		if seen[k] {
			t.Fatalf("op %d repeats key %+v", i, k)
		}
		seen[k] = true
		if k.seed < coldSeedBase {
			t.Fatalf("op %d: seed %d collides with the prewarm seeds", i, k.seed)
		}
		perGraph[k.graph]++
		if (i+1)%graphs == 0 {
			for g, c := range perGraph {
				if c != (i+1)/graphs {
					t.Fatalf("after %d ops graph %d appeared %d times, want %d", i+1, g, c, (i+1)/graphs)
				}
			}
		}
	}
	for g, c := range perGraph {
		if c != n/graphs {
			t.Errorf("graph %d appears %d times, want %d", g, c, n/graphs)
		}
	}
}

func TestZipfPlanStaysInKeySpace(t *testing.T) {
	const graphs = 8
	p := zipfPlan(3, graphs)
	if len(p.keys) != graphs*zipfSeeds {
		t.Fatalf("key space has %d keys, want %d", len(p.keys), graphs*zipfSeeds)
	}
	distinct := make(map[key]bool)
	for r, k := range p.keys {
		if k.graph < 0 || k.graph >= graphs || k.seed < 1 || k.seed > zipfSeeds {
			t.Fatalf("key %+v outside %d graphs x seeds 1..%d", k, graphs, zipfSeeds)
		}
		if k.graph != r%graphs {
			t.Fatalf("rank %d is a key of graph %d, want %d whatever the seed", r, k.graph, r%graphs)
		}
		distinct[k] = true
	}
	if len(distinct) != graphs*zipfSeeds {
		t.Fatalf("key space repeats keys: %d distinct of %d", len(distinct), len(p.keys))
	}
	for i, k := range draw(p, 6000) {
		if !distinct[k] {
			t.Fatalf("request %d draws key %+v outside the key space", i, k)
		}
	}
}

func TestJobsAndWarmShareKeySequence(t *testing.T) {
	corpus := testCorpus(t)
	warm, _ := workloadByName("warm-repeat")
	jobs, _ := workloadByName("jobs-durable")
	a := requestList(t, corpus, warm.plan(5, len(corpus)), 5000)
	b := requestList(t, corpus, jobs.plan(5, len(corpus)), 5000)
	if !bytes.Equal(a, b) {
		t.Fatal("jobs-durable and warm-repeat send different key sequences for one seed")
	}
	if p := warm.plan(5, len(corpus)); len(p.keys) != len(corpus)*len(hotSeeds) {
		t.Fatalf("hot set has %d keys, want %d", len(p.keys), len(corpus)*len(hotSeeds))
	}
}
