package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"salsa/internal/lint"
)

// fixture resolves a package directory inside the analyzer fixture
// module (internal/lint/testdata/src).
func fixture(t *testing.T, pkg string) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata", "src", pkg))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// TestFixtureExitCodes drives the real entry point against each
// analyzer's negative fixture (must exit 1) and a clean package (must
// exit 0) — the same contract CI relies on.
func TestFixtureExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		enable string
		pkg    string
		want   int
	}{
		{"detrand-global", "detrand", "badrand", 1},
		{"detrand-clock", "detrand", "internal/core", 1},
		{"maporder", "maporder", "maporder", 1},
		{"mutguard", "mutguard", "badmut", 1},
		{"graphmut", "mutguard", "badgraphmut", 1},
		{"checkerr", "checkerr", "checkerr", 1},
		{"lockguard", "lockguard", "lockguard", 1},
		{"ctxflow", "ctxflow", "internal/service", 1},
		{"clean-package", "", "internal/binding", 0},
		{"clean-under-other-analyzer", "detrand", "badmut", 0},
		{"lockguard-skips-unannotated", "lockguard", "badmut", 0},
		{"ctxflow-skips-unscoped", "ctxflow", "lockguard", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := []string{}
			if c.enable != "" {
				args = append(args, "-enable", c.enable)
			}
			args = append(args, fixture(t, c.pkg))
			var out, errb bytes.Buffer
			if got := run(args, &out, &errb); got != c.want {
				t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					got, c.want, out.String(), errb.String())
			}
		})
	}
}

func TestJSONOutput(t *testing.T) {
	var out, errb bytes.Buffer
	if got := run([]string{"-json", "-enable", "mutguard", fixture(t, "badmut")}, &out, &errb); got != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", got, errb.String())
	}
	var findings []lint.Finding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON finding array: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("JSON output holds no findings")
	}
	for _, f := range findings {
		if f.Analyzer != "mutguard" {
			t.Errorf("finding from %s leaked through -enable mutguard", f.Analyzer)
		}
	}
}

// documentedSuite is the analyzer set README and DESIGN.md promise, in
// suite order. TestAnalyzerRegistry pins -list to exactly this set so
// a silently-unregistered (or silently-added) analyzer fails the
// build, not just the docs.
var documentedSuite = []string{
	"detrand", "maporder", "mutguard", "checkerr", "lockguard", "ctxflow",
}

func TestAnalyzerRegistry(t *testing.T) {
	var out, errb bytes.Buffer
	if got := run([]string{"-list"}, &out, &errb); got != 0 {
		t.Fatalf("-list exit = %d, want 0; stderr: %s", got, errb.String())
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			t.Fatalf("-list printed a blank line:\n%s", out.String())
		}
		listed = append(listed, fields[0])
	}
	if len(listed) != len(documentedSuite) {
		t.Fatalf("-list shows %d analyzers %v, documented set has %d %v",
			len(listed), listed, len(documentedSuite), documentedSuite)
	}
	for i, name := range documentedSuite {
		if listed[i] != name {
			t.Errorf("-list[%d] = %s, documented suite has %s", i, listed[i], name)
		}
	}
}

func TestListAndBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if got := run([]string{"-list"}, &out, &errb); got != 0 {
		t.Fatalf("-list exit = %d, want 0", got)
	}
	for _, name := range documentedSuite {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output misses analyzer %s", name)
		}
	}
	if got := run([]string{"-enable", "nosuch"}, &out, &errb); got != 2 {
		t.Fatalf("unknown analyzer exit = %d, want 2", got)
	}
	if got := run([]string{"-disable", strings.Join(documentedSuite, ",")}, &out, &errb); got != 2 {
		t.Fatalf("empty selection exit = %d, want 2", got)
	}
}
