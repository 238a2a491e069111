package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"salsa/internal/crosscheck"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestSeeds300Golden pins the oracle's full report for seeds 1-300
// byte-for-byte: both binding models' costs on every random graph, and
// which seeds are infeasible. A search change that is meant to be
// byte-identical must leave testdata/seeds300.golden untouched; one
// that alters results rewrites it with -update and says why.
func TestSeeds300Golden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-seeds", "300", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0\nstderr:\n%s", code, errb.String())
	}
	golden := filepath.Join("testdata", "seeds300.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-json reports drifted from %s (rerun with -update if intended)", golden)
	}
}

// TestCleanTreeExitsZero is the driver-level acceptance check: on a
// healthy tree a seed sweep reports no findings and exits 0.
func TestCleanTreeExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-seeds", "30"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "0 findings") {
		t.Errorf("summary missing from output: %q", out.String())
	}
}

// TestJSONByteIdenticalAcrossWorkers pins the determinism acceptance
// criterion: same seeds and flags, different -workers, byte-identical
// -json stdout.
func TestJSONByteIdenticalAcrossWorkers(t *testing.T) {
	outputs := make([]string, 0, 3)
	for _, workers := range []string{"1", "3", "8"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-seeds", "25", "-seed-start", "11", "-json", "-workers", workers}, &out, &errb); code != 0 {
			t.Fatalf("workers=%s: exit %d\nstderr:\n%s", workers, code, errb.String())
		}
		outputs = append(outputs, out.String())
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("-json output differs between worker counts:\n%s\nvs\n%s", outputs[0], outputs[i])
		}
	}
	// Every line must be a parseable report, in ascending seed order.
	lines := strings.Split(strings.TrimSpace(outputs[0]), "\n")
	if len(lines) != 25 {
		t.Fatalf("got %d JSON lines, want 25", len(lines))
	}
	for i, line := range lines {
		var rep crosscheck.Report
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			t.Fatalf("line %d is not a report: %v", i, err)
		}
		if want := int64(11 + i); rep.Seed != want {
			t.Fatalf("line %d has seed %d, want %d", i, rep.Seed, want)
		}
	}
}

// TestInjectedFaultFailsAndShrinks demonstrates the oracle end to end:
// a planted legality bug must flip the exit code to 1 and -shrink must
// minimize at least one finding to a small replayable graph.
func TestInjectedFaultFailsAndShrinks(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-seeds", "20", "-json", "-shrink", "-inject", "seg-alias"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 with an injected fault\nstderr:\n%s", code, errb.String())
	}
	shrunk := 0
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var rep crosscheck.Report
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Status != crosscheck.StatusFinding || rep.Shrunk == nil {
			continue
		}
		shrunk++
		if rep.Shrunk.Ops > 8 {
			t.Errorf("seed %d shrunk to %d ops, want <= 8", rep.Seed, rep.Shrunk.Ops)
		}
		if rep.Shrunk.GraphJSON == "" {
			t.Errorf("seed %d: shrunk report lacks a replay graph", rep.Seed)
		}
	}
	if shrunk == 0 {
		t.Fatal("no finding was shrunk")
	}
}

// TestBadFlags pins the distinct exit code for operator errors.
func TestBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-inject", "no-such-fault"}, &out, &errb); code != 2 {
		t.Errorf("unknown -inject: exit %d, want 2", code)
	}
	if code := run([]string{"-seeds", "0"}, &out, &errb); code != 2 {
		t.Errorf("-seeds 0: exit %d, want 2", code)
	}
}
