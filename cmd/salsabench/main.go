// Command salsabench is the repository's end-to-end benchmark. For one
// workload it boots salsad's components in-process, each on a loopback
// TCP listener and with the configuration cmd/salsad builds from its
// default flags, drives them with closed-loop clients over the
// testdata/ corpus for a fixed time, checks every served result, and
// prints the end-to-end metrics. A traced run (-trace 1) also records
// spans at every layer boundary, writes them to
// <out>/<workload>.spans.jsonl, and prints the per-layer metrics.
//
// Usage, from the repository root:
//
//	sh cmd/salsabench/run.sh --workload cold-unique --seed 1 --seconds 20 --trace 0
//
// or directly:
//
//	go run ./cmd/salsabench -seed 1                        # every workload, each in a child process
//	go run ./cmd/salsabench -workload warm-repeat -trace 1
//
// The last line of a single-workload run is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
// holding the end-to-end metrics, or with -trace 1 the per-layer ones.
// The exit code is 1 when an op failed or the correctness gate found a
// wrong result, and 2 when the run could not be made. See README.md for
// the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// setupsPerRun is how many times a run sets its workload up; setup_s is
// the median.
const setupsPerRun = 5

// minP99Samples is the fewest timed ops a run makes: one tail window,
// whose p99 has ten samples above it.
const minP99Samples = windowOps

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("salsabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run; empty runs every workload, each in a child process")
		seed    = fs.Int64("seed", 1, "seed of every random choice in the workload")
		seconds = fs.Int("seconds", 20, "length of the timed phase in seconds")
		trace   = fs.Int("trace", 0, "1 makes a traced run: spans are written and per-layer metrics printed")
		out     = fs.String("out", filepath.Join(".bench_build", "spans"), "directory for the span files of a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "salsabench: want -seconds >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	if *name == "" {
		return runAll(stdout, stderr, "-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.Itoa(*seconds),
			"-trace", strconv.Itoa(*trace), "-out", *out)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "salsabench: unknown workload %q\n", *name)
		return 2
	}
	corpus, err := findCorpus()
	if err != nil {
		fmt.Fprintf(stderr, "salsabench: %v\n", err)
		return 2
	}
	opts := options{
		seed:   *seed,
		timed:  time.Duration(*seconds) * time.Second,
		minOps: minP99Samples,
		setups: setupsPerRun,
		trace:  *trace == 1,
	}
	fmt.Fprintf(stdout, "salsabench %s: seed %d, %d s timed, trace %d, corpus %s\n", w.name, *seed, *seconds, *trace, corpus)
	res, err := runWorkload(w, corpus, opts)
	if err == nil && opts.trace {
		path := filepath.Join(*out, w.name+".spans.jsonl")
		if err = writeSpans(path, res.spans); err == nil {
			fmt.Fprintf(stdout, "%s: %d spans written to %s\n", w.name, len(res.spans), path)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "salsabench %s: %v\n", w.name, err)
		return 2
	}
	if err := report(stdout, stderr, w, res, opts.trace); err != nil {
		fmt.Fprintf(stderr, "salsabench %s: %v\n", w.name, err)
		return 2
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh child process of this binary,
// one after another, and fails if any of them does.
func runAll(stdout, stderr io.Writer, args ...string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "salsabench: %v\n", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "salsabench: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// runResult is one workload run's outcome.
type runResult struct {
	attempted, failed int
	samples           int // latency samples behind the p50
	windows           int // tail windows behind the p99
	failures          []string
	replays           int
	problems          int
	problemList       []string
	e2e, layer        map[string]float64
	spans             []span
	// slow is how many times slower than the reference host this host
	// ran; raw holds the timings before scaling by it.
	slow float64
	raw  map[string]float64
}

// correct reports whether every op succeeded and the correctness gate
// found no wrong result. Every workload is built to fail no op, so a
// failure is a regression however fast it was.
func (r *runResult) correct() bool { return r.failed == 0 && r.problems == 0 }

// runWorkload sets w up opts.setups times, keeping the last setup, then
// fills (when w asks for it) and runs the timed phase, the verification
// pass and, in a traced run, the probes.
func runWorkload(w workload, corpusDir string, opts options) (res *runResult, err error) {
	host := sampleHost()
	defer host.stop()
	var b *bench
	var setups []float64
	for i := 0; i < max(opts.setups, 1); i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if b, err = setup(w, corpusDir, opts); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := b.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	if w.fill {
		if err := b.fill(); err != nil {
			return nil, fmt.Errorf("fill: %w", err)
		}
	}

	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	svc0, rtr0 := b.env.counters(), routerCounters(b.env)
	t := b.drive(opts, tr)
	slow := hostSlowness(host.stop())
	svc, rtr := delta(svc0, b.env.counters()), delta(rtr0, routerCounters(b.env))

	sample := b.sample(t.ok + t.failed)
	v, err := b.verify(sample, tr.buffer())
	if err != nil {
		return nil, err
	}
	res = &runResult{attempted: t.ok + t.failed, failed: t.failed, failures: t.failures, replays: v.replays, slow: slow}
	if res.e2e, res.raw, res.samples, res.windows, err = b.endToEnd(setups, t, slow); err != nil {
		return nil, err
	}
	if opts.trace {
		p, err := b.probe(sample)
		if err != nil {
			return nil, err
		}
		res.spans = tr.spans()
		if res.layer, err = b.layers(t, v, p, res.spans, svc, rtr); err != nil {
			return nil, err
		}
	}
	res.problems, res.problemList = b.gate.report()
	return res, nil
}

// routerCounters snapshots the router's counters; nil without a router.
func routerCounters(e *env) map[string]int64 {
	if e.router == nil {
		return nil
	}
	return e.router.MetricsSnapshot()
}

// resultLine is the JSON object a single-workload run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a run's outcome: readable lines, then the JSON line
// with the end-to-end metrics, or in a traced run the per-layer ones.
func report(stdout, stderr io.Writer, w workload, res *runResult, traced bool) error {
	fmt.Fprintf(stdout, "%s: %d ops attempted, %d failed (failed_frac %g), p50 over %d latency samples, p99 the p25 of %d windows of %d\n",
		w.name, res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)), res.samples, res.windows, windowOps)
	fmt.Fprintf(stdout, "%s: correctness gate: %d replays verified, %d problems\n", w.name, res.replays, res.problems)
	fmt.Fprintf(stdout, "%s: host %.4g times slower than the reference host (kernel p25 over %s); unscaled: setup %.4g s, %.4g ops/s, p50 %.4g ms, p99 %.4g ms\n",
		w.name, res.slow, hostRef, res.raw["setup_s"], res.raw["throughput_rps"], res.raw["latency_p50_ms"], res.raw["latency_p99_ms"])
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "%s: failed op: %s\n", w.name, f)
	}
	for _, p := range res.problemList {
		fmt.Fprintf(stderr, "%s: wrong result: %s\n", w.name, p)
	}
	e2e, err := metricValues(stdout, endToEndMetrics, res.e2e)
	if err != nil {
		return err
	}
	line := resultLine{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: e2e}
	if traced {
		printSelfTimes(stdout, res.spans)
		if line.Metrics, err = metricValues(stdout, layerMetrics, res.layer); err != nil {
			return err
		}
	}
	js, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", js)
	return nil
}

// metricValues prints each metric of specs and collects it for the
// JSON line; every metric must have a finite value.
func metricValues(stdout io.Writer, specs []metric, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value", m.name)
		}
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", m.name, v, m.unit)
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out, nil
}

// printSelfTimes prints, per span name, the number of spans and their
// total self time: where the traced run's time went.
func printSelfTimes(stdout io.Writer, spans []span) {
	self := selfTimes(spans)
	total := make(map[string]int64)
	count := make(map[string]int)
	for i, s := range spans {
		total[s.name] += self[i]
		count[s.name]++
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return total[names[i]] > total[names[j]] })
	fmt.Fprintln(stdout, "  self time by span:")
	for _, n := range names {
		fmt.Fprintf(stdout, "    %-20s %8d spans %12.3f ms\n", n, count[n], float64(total[n])/1e6)
	}
}
