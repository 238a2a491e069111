package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"salsa"
)

// gate is the output-correctness check. It holds the first result
// served for every key and requires every later one to match it: a
// cache hit the miss that filled the cache, a router answer the
// backend's, a job's result the synchronous body (up to JSON
// whitespace). verify then compares a key's result with a direct run of
// the library.
type gate struct {
	corpus []graphEntry

	mu       sync.Mutex
	entries  map[key]*gateEntry // guarded by mu
	problems []string           // guarded by mu; the first maxProblems
	count    int                // guarded by mu; every problem
}

// gateEntry is what the gate keeps of a key's first result.
type gateEntry struct {
	sync    []byte // exact body of the first POST /allocate answer; nil if none yet
	compact []byte // the first result without insignificant whitespace
	merged  int    // merged_mux
	cost    int    // cost.total
}

const maxProblems = 8

func newGate(corpus []graphEntry) *gate {
	return &gate{corpus: corpus, entries: make(map[key]*gateEntry)}
}

// observe checks one served result for k: the body of a POST /allocate
// answer (sync) or the result document of a finished job.
func (g *gate) observe(k key, body []byte, sync bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	e := g.entries[k]
	if e == nil {
		doc, err := checkDoc(g.corpus, k, body)
		if err != nil {
			return g.problemLocked(k, err.Error())
		}
		e = &gateEntry{compact: compactJSON(body), merged: doc.MergedMux, cost: doc.Cost.Total}
		if sync {
			e.sync = body
		}
		g.entries[k] = e
		return nil
	}
	if sync && e.sync != nil {
		if !bytes.Equal(e.sync, body) {
			return g.problemLocked(k, "body differs from an earlier body for the same request")
		}
		return nil
	}
	if !bytes.Equal(e.compact, compactJSON(body)) {
		return g.problemLocked(k, "result differs from an earlier result for the same request")
	}
	if sync {
		e.sync = body
	}
	return nil
}

// verify compares the result served for k with ref, the body a direct
// run of the library produced for the same request.
func (g *gate) verify(k key, ref []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	e := g.entries[k]
	switch {
	case e == nil:
		return g.problemLocked(k, "no served result to verify")
	case e.sync != nil && !bytes.Equal(e.sync, ref):
		return g.problemLocked(k, "served body differs from a direct run of the library")
	case !bytes.Equal(e.compact, compactJSON(ref)):
		return g.problemLocked(k, "served result differs from a direct run of the library")
	}
	return nil
}

// problem records a correctness failure found outside observe/verify.
func (g *gate) problem(k key, msg string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.problemLocked(k, msg)
}

// problemLocked records a problem; the caller holds g.mu.
func (g *gate) problemLocked(k key, msg string) error {
	err := fmt.Errorf("%s seed %d: %s", g.corpus[k.graph].name, k.seed, msg)
	g.count++                          //lint:lockguard problemLocked's callers hold g.mu
	if len(g.problems) < maxProblems { //lint:lockguard problemLocked's callers hold g.mu
		g.problems = append(g.problems, err.Error()) //lint:lockguard problemLocked's callers hold g.mu
	}
	return err
}

// quality sums, over the corpus graphs, the mean merged_mux and the mean
// cost.total of the graph's served keys. Means rather than sums keep the
// number independent of how many requests the timed phase got through.
func (g *gate) quality() (merged, cost float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := make([]int, len(g.corpus))
	m := make([]int, len(g.corpus))
	c := make([]int, len(g.corpus))
	for k, e := range g.entries {
		n[k.graph]++
		m[k.graph] += e.merged
		c[k.graph] += e.cost
	}
	for i := range n {
		if n[i] > 0 {
			merged += float64(m[i]) / float64(n[i])
			cost += float64(c[i]) / float64(n[i])
		}
	}
	return merged, cost
}

// served returns the result served for k: the exact synchronous body
// if there was one, else the job result.
func (g *gate) served(k key) []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	e := g.entries[k]
	switch {
	case e == nil:
		return nil
	case e.sync != nil:
		return e.sync
	}
	return e.compact
}

// report returns the number of problems found and the first few.
func (g *gate) report() (int, []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.count, append([]string(nil), g.problems...)
}

// checkDoc decodes a result and checks that it answers the request k
// stands for: the right graph, seed and defaults, and a complete search.
func checkDoc(corpus []graphEntry, k key, body []byte) (salsa.ResultJSON, error) {
	var doc salsa.ResultJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, fmt.Errorf("undecodable result: %v", err)
	}
	ge := corpus[k.graph]
	switch {
	case doc.Graph != ge.name || doc.Fingerprint != ge.fingerprint:
		return doc, fmt.Errorf("result is for graph %s (%.12s), not %s (%.12s)", doc.Graph, doc.Fingerprint, ge.name, ge.fingerprint)
	case doc.Mode != "salsa" || doc.Seed != k.seed || doc.Restarts != 3:
		return doc, fmt.Errorf("result is for mode %s seed %d restarts %d", doc.Mode, doc.Seed, doc.Restarts)
	case doc.Partial:
		return doc, fmt.Errorf("partial result")
	case doc.MergedMux < 0 || doc.Cost.Total <= 0:
		return doc, fmt.Errorf("implausible costs: merged_mux %d, cost.total %d", doc.MergedMux, doc.Cost.Total)
	}
	return doc, nil
}

// compactJSON strips insignificant whitespace; a body that is not JSON
// comes back unchanged, so it still compares unequal to any result.
func compactJSON(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return b
	}
	return buf.Bytes()
}
