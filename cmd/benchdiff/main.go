// Command benchdiff summarizes and compares `go test -bench` output.
//
// It parses one or two benchmark logs (typically produced with
// -count N so each benchmark has several samples), reduces every
// benchmark to its per-metric median, and then:
//
//   - with -json FILE, writes a machine-readable summary of the new
//     log: benchmark name → median ns/op, allocs/op and B/op;
//   - with -old FILE, prints an old-vs-new comparison table and, for
//     every benchmark whose name matches -gate, fails (exit 1) when
//     median ns/op regressed by more than -max-regress percent or the
//     benchmark is missing from the new log.
//
// The CI benchmark job runs the suite on the pull request and on the
// merge base, then gates the PR with:
//
//	benchdiff -old base.txt -new pr.txt \
//	    -gate '^BenchmarkAllocateParallel_(EWF|DCT)_(W1|WNumCPU)$' -max-regress 10
//
// Exit codes: 0 ok, 1 gated regression or removal, 2 usage or parse
// error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// sample is one benchmark line's measurements, keyed by unit
// ("ns/op", "B/op", "allocs/op", plus any custom -ReportMetric units).
type sample map[string]float64

// summary is one benchmark's median metrics across its samples.
type summary struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Runs        int     `json:"runs"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		newPath    = fs.String("new", "", "benchmark log to summarize (required)")
		oldPath    = fs.String("old", "", "baseline benchmark log to compare against")
		jsonPath   = fs.String("json", "", "write the new log's median summary as JSON to this file ('-' for stdout)")
		gate       = fs.String("gate", "", "regexp of benchmark names the regression gate applies to (default: gate nothing)")
		maxRegress = fs.Float64("max-regress", 10, "fail when a gated benchmark's median ns/op regresses by more than this percent")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *newPath == "" {
		fmt.Fprintln(stderr, "benchdiff: -new is required")
		return 2
	}
	var gateRE *regexp.Regexp
	if *gate != "" {
		var err error
		if gateRE, err = regexp.Compile(*gate); err != nil {
			fmt.Fprintln(stderr, "benchdiff: bad -gate:", err)
			return 2
		}
	}

	newRuns, err := parseFile(*newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	if len(newRuns) == 0 {
		fmt.Fprintf(stderr, "benchdiff: no benchmark results in %s\n", *newPath)
		return 2
	}
	newSum := summarize(newRuns)

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(newSum, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		buf = append(buf, '\n')
		if *jsonPath == "-" {
			if _, err := stdout.Write(buf); err != nil {
				fmt.Fprintln(stderr, "benchdiff:", err)
				return 2
			}
		} else if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
	}

	if *oldPath == "" {
		for _, name := range sortedNames(newSum) {
			s := newSum[name]
			fmt.Fprintf(stdout, "%-50s %14.0f ns/op %10.0f B/op %8.0f allocs/op (n=%d)\n",
				name, s.NsPerOp, s.BytesPerOp, s.AllocsPerOp, s.Runs)
		}
		return 0
	}

	oldRuns, err := parseFile(*oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	oldSum := summarize(oldRuns)

	gated := func(name string) bool { return gateRE != nil && gateRE.MatchString(name) }
	regressed, removed := false, false
	for _, name := range sortedNames(newSum) {
		n := newSum[name]
		o, ok := oldSum[name]
		if !ok || o.NsPerOp == 0 {
			fmt.Fprintf(stdout, "%-50s %14.0f ns/op  (new benchmark)\n", name, n.NsPerOp)
			continue
		}
		delta := (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		verdict := ""
		if gated(name) {
			verdict = "  [gated]"
			if delta > *maxRegress {
				verdict = fmt.Sprintf("  [REGRESSION > %.0f%%]", *maxRegress)
				regressed = true
			}
		}
		fmt.Fprintf(stdout, "%-50s %14.0f -> %14.0f ns/op  %+7.2f%%%s\n",
			name, o.NsPerOp, n.NsPerOp, delta, verdict)
	}
	// A gated benchmark the new log lacks was deleted or renamed; the
	// gate cannot compare it, so it fails rather than passing silently.
	for _, name := range sortedNames(oldSum) {
		if _, ok := newSum[name]; ok {
			continue
		}
		verdict := ""
		if gated(name) {
			verdict = "  [GATED BENCHMARK REMOVED]"
			removed = true
		}
		fmt.Fprintf(stdout, "%-50s %14.0f ns/op  (removed)%s\n", name, oldSum[name].NsPerOp, verdict)
	}
	if regressed {
		fmt.Fprintln(stdout, "benchdiff: gated benchmark regressed")
	}
	if removed {
		fmt.Fprintln(stdout, "benchdiff: gated benchmark missing from -new")
	}
	if regressed || removed {
		return 1
	}
	return 0
}

// benchLine matches one result line of go test -bench output:
// name, iteration count, then value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// parseFile reads a go test -bench log and returns every sample per
// benchmark name, in file order. The -N GOMAXPROCS suffix is stripped
// so logs from differently-shaped runners compare by benchmark.
func parseFile(path string) (map[string][]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

func parse(r io.Reader) (map[string][]sample, error) {
	out := make(map[string][]sample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := trimProcs(m[1])
		fields := strings.Fields(m[3])
		s := sample{}
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad metric value %q", name, fields[i])
			}
			s[fields[i+1]] = v
		}
		if len(s) > 0 {
			out[name] = append(out[name], s)
		}
	}
	return out, sc.Err()
}

// trimProcs removes the -N GOMAXPROCS suffix from a benchmark name.
func trimProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// summarize reduces each benchmark's samples to their per-metric
// medians — the same robust center benchstat uses, so single-sample
// noise spikes in a -count run cannot flip the gate.
func summarize(runs map[string][]sample) map[string]summary {
	out := make(map[string]summary, len(runs))
	for name, ss := range runs {
		out[name] = summary{
			NsPerOp:     median(collect(ss, "ns/op")),
			AllocsPerOp: median(collect(ss, "allocs/op")),
			BytesPerOp:  median(collect(ss, "B/op")),
			Runs:        len(ss),
		}
	}
	return out
}

func collect(ss []sample, unit string) []float64 {
	var vs []float64
	for _, s := range ss {
		if v, ok := s[unit]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

// median returns the middle of the sorted values (mean of the two
// middles for even counts), or 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func sortedNames(m map[string]summary) []string {
	names := make([]string, 0, len(m))
	//lint:maporder names are sorted before use
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
