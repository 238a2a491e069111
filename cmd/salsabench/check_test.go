package main

import (
	"encoding/json"
	"testing"

	"salsa"
)

// figure1Result returns the key of figure1 with seed 1 and the body a
// direct run of the library produces for it.
func figure1Result(t *testing.T, corpus []graphEntry) (key, []byte) {
	t.Helper()
	k := key{graph: -1, seed: 1}
	for i, g := range corpus {
		if g.name == "figure1" {
			k.graph = i
		}
	}
	if k.graph < 0 {
		t.Fatal("no figure1 in the corpus")
	}
	wire, err := requestBody(corpus, k)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := replay(nil, wire)
	if err != nil {
		t.Fatal(err)
	}
	return k, r.body
}

func TestGateRejectsWrongResults(t *testing.T) {
	corpus := testCorpus(t)
	k, ref := figure1Result(t, corpus)

	var doc salsa.ResultJSON
	if err := json.Unmarshal(ref, &doc); err != nil {
		t.Fatal(err)
	}
	doc.MergedMux++
	wrongMux, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	wrongMux = append(wrongMux, '\n')

	corrupted := append([]byte(nil), ref...)
	corrupted[len(corrupted)/2] ^= 0x5a

	t.Run("correct", func(t *testing.T) {
		g := newGate(corpus)
		if err := g.observe(k, ref, true); err != nil {
			t.Fatal(err)
		}
		if err := g.observe(k, compactJSON(ref), false); err != nil {
			t.Fatalf("job result equal to the sync body up to whitespace: %v", err)
		}
		if err := g.verify(k, ref); err != nil {
			t.Fatal(err)
		}
		if n, _ := g.report(); n != 0 {
			t.Fatalf("%d problems on correct results", n)
		}
	})
	t.Run("corrupted body", func(t *testing.T) {
		g := newGate(corpus)
		if err := g.observe(k, corrupted, true); err == nil {
			if err := g.verify(k, ref); err == nil {
				t.Fatal("corrupted body passed the gate")
			}
		}
		g = newGate(corpus)
		if err := g.observe(k, ref, true); err != nil {
			t.Fatal(err)
		}
		if err := g.observe(k, corrupted, true); err == nil {
			t.Fatal("corrupted body after a correct one passed the gate")
		}
	})
	t.Run("wrong merged_mux", func(t *testing.T) {
		g := newGate(corpus)
		if err := g.observe(k, wrongMux, true); err != nil {
			t.Fatalf("a well-formed result is accepted until verified: %v", err)
		}
		if err := g.verify(k, ref); err == nil {
			t.Fatal("wrong merged_mux passed verification against a direct run")
		}
		g = newGate(corpus)
		if err := g.observe(k, ref, true); err != nil {
			t.Fatal(err)
		}
		if err := g.observe(k, compactJSON(wrongMux), false); err == nil {
			t.Fatal("job result with a wrong merged_mux passed the gate")
		}
		if n, _ := g.report(); n != 1 {
			t.Fatalf("gate counted %d problems, want 1", n)
		}
	})
}
