package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"salsa"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestJSONModeGolden locks the -json output byte-for-byte: the schema
// is shared with the salsad service, carries no wall-clock fields, and
// allocation is deterministic, so the exact bytes are reproducible.
func TestJSONModeGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-bench", "figure1", "-restarts", "2", "-seed", "1", "-json", "-verify=false"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "figure1_result.json")
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("-json output drifted from golden file (rerun with -update if intended):\n got %s\nwant %s",
			stdout.Bytes(), want)
	}

	// The document must decode as the shared schema with sane content.
	var rj salsa.ResultJSON
	if err := json.Unmarshal(stdout.Bytes(), &rj); err != nil {
		t.Fatalf("output is not a ResultJSON: %v", err)
	}
	if rj.Graph != "figure1" || rj.Mode != "salsa" || rj.Seed != 1 || rj.Restarts != 2 {
		t.Errorf("echoed request fields wrong: %+v", rj)
	}
	if rj.Partial {
		t.Error("unconstrained run reported partial")
	}
	if len(rj.Fingerprint) != 64 {
		t.Errorf("fingerprint %q is not a sha256 hex digest", rj.Fingerprint)
	}
}

// TestJSONModeVerify: -json respects -verify (on by default) and stays
// silent on stdout apart from the result document.
func TestJSONModeVerify(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-bench", "diffeq", "-restarts", "2", "-json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Errorf("-json printed %d stdout lines, want exactly the result document:\n%s", len(lines), stdout.String())
	}
	var rj salsa.ResultJSON
	if err := json.Unmarshal([]byte(lines[0]), &rj); err != nil {
		t.Fatalf("output is not a ResultJSON: %v", err)
	}
}

// TestRunErrors: flag and input failures exit non-zero via stderr, not
// panics, for both prose and JSON modes, with one "salsa:" prefix.
func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-bench", "nope"},
		{"-bench", "figure1", "-mode", "quantum", "-json"},
		{"-bench", "figure1", "-cdfg", "also.json"},
		{"-bench", "figure1", "-scheduler", "bogus"},
		{"-bench", "figure1", "-scheduler", "bogus", "-json"},
		{},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("run(%v) succeeded, want failure", args)
		}
		if stderr.Len() == 0 {
			t.Errorf("run(%v) failed without a diagnostic", args)
		}
		if strings.Contains(stderr.String(), "salsa: salsa:") {
			t.Errorf("run(%v) doubled the error prefix: %s", args, stderr.String())
		}
	}
}

// TestTooFewStepsNamesCriticalPath: a length below the critical path
// fails with one message, naming the critical path, in prose and -json
// mode under either scheduler, and the CLI's "salsa:" prefix is never
// doubled by a library error.
func TestTooFewStepsNamesCriticalPath(t *testing.T) {
	for _, mode := range [][]string{nil, {"-json"}} {
		for _, sched := range []string{"list", "fds"} {
			args := append([]string{"-bench", "ewf", "-steps", "5", "-scheduler", sched}, mode...)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 1 {
				t.Errorf("run(%v) exit %d, want 1", args, code)
			}
			if got, want := stderr.String(), "salsa: 5 steps is below the critical path (17)\n"; got != want {
				t.Errorf("run(%v) stderr %q, want %q", args, got, want)
			}
		}
	}
}

// TestProseTimeout: a prose -timeout shorter than the first trial makes
// each model of -mode both report that its own portfolio found nothing
// before the deadline, so the deadline applies per portfolio, and the
// run exits 1. A deadline is not the paper's infeasibility, so neither
// line says infeasible.
func TestProseTimeout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "ewf", "-mode", "both", "-timeout", "1ns"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	for _, model := range []string{"traditional:", "salsa:      "} {
		want := model + " no allocation before the -timeout deadline\n"
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	if strings.Contains(stdout.String(), "infeasible") {
		t.Errorf("a deadline reported as infeasibility:\n%s", stdout.String())
	}
}

// TestCorpusDigestsGolden pins the exact allocation bytes of the corpus:
// the SHA-256 of the -json document for each testdata/ graph at seeds
// 1000-1003 with one worker. A search change that is meant to be
// byte-identical must leave testdata/corpus_digests.golden untouched;
// one that alters results rewrites it with -update and says why.
func TestCorpusDigestsGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 8 {
		t.Fatalf("corpus has %d graphs, want 8", len(files))
	}
	var got bytes.Buffer
	for _, f := range files {
		for seed := 1000; seed <= 1003; seed++ {
			var stdout, stderr bytes.Buffer
			args := []string{"-cdfg", f, "-seed", strconv.Itoa(seed), "-workers", "1", "-json", "-verify=false"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s seed %d: exit code %d, stderr: %s", f, seed, code, stderr.String())
			}
			fmt.Fprintf(&got, "%s %d %x\n", filepath.Base(f), seed, sha256.Sum256(stdout.Bytes()))
		}
	}
	golden := filepath.Join("testdata", "corpus_digests.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("corpus allocations drifted from %s (rerun with -update if intended):\n got:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}

// TestProseGolden pins the prose report byte-for-byte: the schedule
// line, every allocation line, the charts, the area and placement
// reports, verification and simulation, for list and force-directed
// schedules and for an infeasible traditional run. -v is left out: it
// prints wall-clock times.
func TestProseGolden(t *testing.T) {
	cases := [][]string{
		{"-bench", "diffeq", "-mode", "both", "-chart", "-area", "-place", "-sim", "dx=1,a=10,x=0,y=1,u=0", "-workers", "1"},
		{"-bench", "ewf", "-mode", "matching"},
		{"-bench", "ewf", "-scheduler", "fds", "-steps", "19", "-mode", "both", "-restarts", "2"},
		{"-bench", "dct", "-steps", "12", "-mode", "traditional", "-restarts", "2"},
	}
	var got bytes.Buffer
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		fmt.Fprintf(&got, "$ salsa %s\n%s", strings.Join(args, " "), stdout.Bytes())
		if stderr.Len() > 0 {
			fmt.Fprintf(&got, "stderr: %s", stderr.Bytes())
		}
		fmt.Fprintf(&got, "exit %d\n\n", code)
	}
	golden := filepath.Join("testdata", "prose.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("prose output drifted from %s (rerun with -update if intended):\n got:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}
