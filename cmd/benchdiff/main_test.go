package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleLog = `goos: linux
goarch: amd64
pkg: salsa
cpu: Example CPU
BenchmarkAllocateParallel_EWF_W1-8   	       3	 100000000 ns/op	        24.00 muxes	         1.000 workers	 5000000 B/op	   60000 allocs/op
BenchmarkAllocateParallel_EWF_W1-8   	       3	 120000000 ns/op	        24.00 muxes	         1.000 workers	 5000100 B/op	   60010 allocs/op
BenchmarkAllocateParallel_EWF_W1-8   	       3	 110000000 ns/op	        24.00 muxes	         1.000 workers	 5000200 B/op	   60020 allocs/op
BenchmarkDeltaEvalEWF-8              	 1000000	      1100 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	salsa	10.0s
`

func writeLog(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseStripsProcsAndCollectsSamples(t *testing.T) {
	runs, err := parse(strings.NewReader(sampleLog))
	if err != nil {
		t.Fatal(err)
	}
	ss, ok := runs["BenchmarkAllocateParallel_EWF_W1"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped; have keys %v", runs)
	}
	if len(ss) != 3 {
		t.Fatalf("got %d samples, want 3 (one per -count run)", len(ss))
	}
	if ss[1]["ns/op"] != 120000000 {
		t.Errorf("ns/op of second sample = %v, want 120000000", ss[1]["ns/op"])
	}
	if ss[0]["muxes"] != 24 {
		t.Errorf("custom metric lost: muxes = %v, want 24", ss[0]["muxes"])
	}
}

func TestSummarizeTakesMedians(t *testing.T) {
	runs, err := parse(strings.NewReader(sampleLog))
	if err != nil {
		t.Fatal(err)
	}
	sum := summarize(runs)
	s := sum["BenchmarkAllocateParallel_EWF_W1"]
	if s.NsPerOp != 110000000 {
		t.Errorf("median ns/op = %v, want 110000000", s.NsPerOp)
	}
	if s.BytesPerOp != 5000100 || s.AllocsPerOp != 60010 {
		t.Errorf("median B/op, allocs/op = %v, %v; want 5000100, 60010", s.BytesPerOp, s.AllocsPerOp)
	}
	if s.Runs != 3 {
		t.Errorf("runs = %d, want 3", s.Runs)
	}
}

func TestMedianEvenCount(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestJSONEmission(t *testing.T) {
	logPath := writeLog(t, "new.txt", sampleLog)
	jsonPath := filepath.Join(t.TempDir(), "BENCH_incremental.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-new", logPath, "-json", jsonPath}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]summary
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("emitted JSON invalid: %v", err)
	}
	if got["BenchmarkDeltaEvalEWF"].NsPerOp != 1100 {
		t.Errorf("DeltaEval ns/op = %v, want 1100", got["BenchmarkDeltaEvalEWF"].NsPerOp)
	}
	if got["BenchmarkAllocateParallel_EWF_W1"].NsPerOp != 110000000 {
		t.Errorf("EWF ns/op = %v, want median 110000000", got["BenchmarkAllocateParallel_EWF_W1"].NsPerOp)
	}
}

// gateLog rewrites the sample log's EWF timings scaled by the factor,
// simulating a PR run against a baseline.
func gateLog(scale float64) string {
	r := strings.NewReplacer(
		"100000000 ns/op", fmt.Sprintf("%d ns/op", int64(100000000*scale)),
		"120000000 ns/op", fmt.Sprintf("%d ns/op", int64(120000000*scale)),
		"110000000 ns/op", fmt.Sprintf("%d ns/op", int64(110000000*scale)),
	)
	return r.Replace(sampleLog)
}

func TestGatePassesWithinThreshold(t *testing.T) {
	oldPath := writeLog(t, "old.txt", sampleLog)
	newPath := writeLog(t, "new.txt", gateLog(1.05)) // +5% < 10%
	var out, errb bytes.Buffer
	code := run([]string{"-old", oldPath, "-new", newPath,
		"-gate", "BenchmarkAllocateParallel_(EWF|DCT)_", "-max-regress", "10"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d for +5%% on a 10%% gate; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "[gated]") {
		t.Errorf("comparison did not mark the gated benchmark:\n%s", out.String())
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	oldPath := writeLog(t, "old.txt", sampleLog)
	newPath := writeLog(t, "new.txt", gateLog(1.25)) // +25% > 10%
	var out, errb bytes.Buffer
	code := run([]string{"-old", oldPath, "-new", newPath,
		"-gate", "BenchmarkAllocateParallel_(EWF|DCT)_", "-max-regress", "10"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d for +25%% on a 10%% gate, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("regression not reported:\n%s", out.String())
	}
}

func TestGateIgnoresUngatedRegression(t *testing.T) {
	// DeltaEval regresses wildly but is outside the gate expression.
	oldPath := writeLog(t, "old.txt", sampleLog)
	slow := strings.Replace(sampleLog, "1100 ns/op", "9900 ns/op", 1)
	newPath := writeLog(t, "new.txt", slow)
	var out, errb bytes.Buffer
	code := run([]string{"-old", oldPath, "-new", newPath,
		"-gate", "BenchmarkAllocateParallel_(EWF|DCT)_", "-max-regress", "10"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0: ungated benchmarks must not trip the gate; output:\n%s", code, out.String())
	}
}

func TestGateFailsOnRemovedBenchmark(t *testing.T) {
	oldPath := writeLog(t, "old.txt", sampleLog)
	for _, tc := range []struct {
		drop string
		want int
	}{
		{"BenchmarkAllocateParallel_EWF_W1", 1}, // gated: deleting it must not pass the gate
		{"BenchmarkDeltaEvalEWF", 0},            // outside the gate expression
	} {
		var kept []string
		for _, line := range strings.Split(sampleLog, "\n") {
			if !strings.HasPrefix(line, tc.drop+"-") {
				kept = append(kept, line)
			}
		}
		newPath := writeLog(t, "new.txt", strings.Join(kept, "\n"))
		var out, errb bytes.Buffer
		code := run([]string{"-old", oldPath, "-new", newPath,
			"-gate", "^BenchmarkAllocateParallel_(EWF|DCT)_(W1|WNumCPU)$", "-max-regress", "10"}, &out, &errb)
		if code != tc.want {
			t.Errorf("%s removed: exit %d, want %d; output:\n%s", tc.drop, code, tc.want, out.String())
		}
		if !strings.Contains(out.String(), tc.drop) || !strings.Contains(out.String(), "(removed)") {
			t.Errorf("%s removed: no (removed) line:\n%s", tc.drop, out.String())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("missing -new: exit %d, want 2", code)
	}
	logPath := writeLog(t, "new.txt", sampleLog)
	if code := run([]string{"-new", logPath, "-gate", "("}, &out, &errb); code != 2 {
		t.Errorf("bad -gate regexp: exit %d, want 2", code)
	}
	empty := writeLog(t, "empty.txt", "PASS\nok salsa 1s\n")
	if code := run([]string{"-new", empty}, &out, &errb); code != 2 {
		t.Errorf("no benchmarks: exit %d, want 2", code)
	}
}
