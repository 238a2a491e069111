package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeAllWorkloads runs every workload traced, in-process, over
// the two smallest corpus graphs for 1000 ops: the fewest that support
// a p99. Every op must succeed, the correctness gate must pass, and
// every metric must be reported.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	src, err := findCorpus()
	if err != nil {
		t.Fatal(err)
	}
	corpus := t.TempDir()
	for _, name := range []string{"figure1.json", "tseng.json"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(corpus, name), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	t.Setenv("TMPDIR", t.TempDir())

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, corpus, options{seed: 1, minOps: minP99Samples, setups: 2, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted < minP99Samples || res.failed != 0 || !res.correct() {
				t.Errorf("%d of %d ops failed, first failures %q", res.failed, res.attempted, res.failures)
			}
			if res.problems != 0 {
				t.Errorf("correctness gate: %d problems: %q", res.problems, res.problemList)
			}
			for _, set := range []struct {
				specs  []metric
				values map[string]float64
			}{{endToEndMetrics, res.e2e}, {layerMetrics, res.layer}} {
				if len(set.values) != len(set.specs) {
					t.Errorf("%d metrics reported, want %d", len(set.values), len(set.specs))
				}
				for _, m := range set.specs {
					if _, ok := set.values[m.name]; !ok {
						t.Errorf("metric %s missing", m.name)
					}
				}
			}
			if len(res.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}
