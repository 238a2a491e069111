package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"salsa"
	"salsa/internal/cdfg"
	"salsa/internal/cluster"
	"salsa/internal/journal"
)

// metric describes one reported metric. BENCHMARK.json lists the same
// names, units and directions.
type metric struct {
	name, unit, better string
	// bound is how much worse an end-to-end metric's median may get, as
	// a share of the parent commit's median, before a change counts as
	// a regression.
	bound float64
}

// endToEndMetrics are what a caller of salsad sees; an untraced run
// reports them.
var endToEndMetrics = []metric{
	{"setup_s", "s", "lower", 0.25},
	// Timings get the widest bound allowed: on a shared 2-core VM the
	// host alone moves them by up to a third between minutes (README).
	{"throughput_rps", "ops/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	// Deterministic for a given plan prefix, so any change is real.
	{"merged_mux_sum", "muxes", "lower", 0.01},
	{"cost_sum", "cost", "lower", 0.01},
	// jobs-durable's job registry keeps every job, so its memory follows
	// its throughput.
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// layerMetrics are measured per package; a traced run reports them. A
// layer the workload's requests never reach reads 0.
var layerMetrics = []metric{
	{name: "service.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "service.engine_runs", unit: "count", better: "higher"},
	{name: "service.flight_shared", unit: "count", better: "higher"},
	{name: "service.rejected", unit: "count", better: "lower"},
	{name: "service.hit_us", unit: "us", better: "lower"},
	{name: "service.miss_ms", unit: "ms", better: "lower"},
	{name: "service.unmarshal_us", unit: "us", better: "lower"},
	{name: "service.encode_us", unit: "us", better: "lower"},
	{name: "service.polls_per_job", unit: "polls", better: "lower"},
	{name: "cdfg.parse_us", unit: "us", better: "lower"},
	{name: "cdfg.fingerprint_us", unit: "us", better: "lower"},
	{name: "salsa.compile_us", unit: "us", better: "lower"},
	{name: "engine.run_ms", unit: "ms", better: "lower"},
	{name: "engine.job_ms", unit: "ms", better: "lower"},
	{name: "engine.jobs_per_run", unit: "count", better: "lower"},
	{name: "engine.pruned_ratio", unit: "ratio", better: "higher"},
	{name: "core.moves_tried", unit: "count", better: "lower"},
	{name: "core.trials", unit: "count", better: "lower"},
	{name: "core.accept_ratio", unit: "ratio", better: "higher"},
	{name: "core.ns_per_move", unit: "ns", better: "lower"},
	{name: "core.allocs_per_run", unit: "count", better: "lower"},
	{name: "core.bytes_per_run", unit: "B", better: "lower"},
	{name: "binding.check_us", unit: "us", better: "lower"},
	{name: "journal.append_sync_us", unit: "us", better: "lower"},
	{name: "journal.append_sync_us_p99", unit: "us", better: "lower"},
	{name: "journal.bytes_per_job", unit: "B", better: "lower"},
	{name: "cluster.router_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cluster.hop_us", unit: "us", better: "lower"},
	{name: "cluster.shard_skew", unit: "ratio", better: "lower"},
	{name: "cluster.failovers", unit: "count", better: "lower"},
	{name: "cluster.owner_ns", unit: "ns", better: "lower"},
}

// endToEnd computes the end-to-end metrics, with the timings scaled to
// the reference host by slow (host.go), and returns the unscaled timings,
// the number of latency samples behind the p50 and the number of tail
// windows behind the p99.
func (b *bench) endToEnd(setups []float64, t *timedLog, slow float64) (e2e, raw map[string]float64, n, windows int, err error) {
	p50, n, err := percentile(&t.lat, 0.5)
	if err != nil {
		return nil, nil, n, 0, err
	}
	p99, windows, err := t.tails.p99()
	if err != nil {
		return nil, nil, n, windows, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, nil, n, windows, err
	}
	raw = map[string]float64{
		"setup_s":        median(setups),
		"throughput_rps": float64(t.ok) / t.wall.Seconds(),
		"latency_p50_ms": p50 / 1e6,
		"latency_p99_ms": p99 / 1e6,
	}
	merged, cost := b.gate.quality()
	return map[string]float64{
		"setup_s":        raw["setup_s"] / slow,
		"throughput_rps": raw["throughput_rps"] * slow,
		"latency_p50_ms": raw["latency_p50_ms"] / slow,
		"latency_p99_ms": raw["latency_p99_ms"] / slow,
		"merged_mux_sum": merged,
		"cost_sum":       cost,
		"peak_rss_mb":    rss,
	}, raw, n, windows, nil
}

// probes are per-layer measurements the replay spans cannot give: a
// memory delta around an engine run alone, enough journal appends for a
// p99, and ring lookups too short to time one by one.
type probes struct {
	allocs, bytes float64 // per engine run
	appends       hist    // journal.Append(rec, true)
	bytesPerJob   float64
	ownerNS       float64
}

// journalProbeAppends is the number of timed journal appends: enough
// for a p99 with ten samples above it.
const journalProbeAppends = 1024

// ownerProbeCalls is the number of timed Ring.Owner calls.
const ownerProbeCalls = 200000

// probe measures the probes on the sample: solo engine runs on one key
// per graph, journal appends of the sample's records on jobs-durable,
// and ring lookups of the sample's fingerprints on routed-zipf.
func (b *bench) probe(sample []key) (*probes, error) {
	p := &probes{}
	seen := make(map[int]bool)
	runs := 0
	var m0, m1 runtime.MemStats
	for _, k := range sample {
		if seen[k.graph] {
			continue
		}
		seen[k.graph] = true
		g, err := cdfg.ParseJSON(b.corpus[k.graph].raw)
		if err != nil {
			return nil, err
		}
		req := salsa.Request{Graph: g, Seed: k.seed}.Normalize()
		des, err := salsa.Compile(g, req.Params)
		if err != nil {
			return nil, err
		}
		jobs := salsa.Restarts(salsa.SALSAOptions(req.Seed), req.Restarts)
		runtime.ReadMemStats(&m0)
		_, _, err = des.AllocatePortfolio(context.Background(), jobs, salsa.EngineConfig{Workers: 1})
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		p.allocs += float64(m1.Mallocs - m0.Mallocs)
		p.bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
		runs++
	}
	p.allocs = ratio(p.allocs, float64(runs))
	p.bytes = ratio(p.bytes, float64(runs))

	if b.w.jobs {
		if err := b.probeJournal(sample, p); err != nil {
			return nil, err
		}
	}
	if b.env.router != nil {
		ring := cluster.NewRing(b.env.names, 0)
		fps := make([]string, len(sample))
		for i, k := range sample {
			fps[i] = b.corpus[k.graph].fingerprint
		}
		hits := 0
		t0 := time.Now()
		for i := 0; i < ownerProbeCalls; i++ {
			if _, ok := ring.Owner(fps[i%len(fps)]); ok {
				hits++
			}
		}
		p.ownerNS = float64(time.Since(t0).Nanoseconds()) / float64(ownerProbeCalls)
		if hits != ownerProbeCalls {
			return nil, errors.New("ring lookup found no owner")
		}
	}
	return p, nil
}

// probeJournal appends the sample's Accepted and Result records into a
// scratch journal, fsynced like salsad's, until journalProbeAppends
// appends were timed.
func (b *bench) probeJournal(sample []key, p *probes) error {
	dir, err := os.MkdirTemp("", "salsabench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jrn, err := journal.Open(dir)
	if err != nil {
		return err
	}
	jobs := 0
	for p.appends.n < journalProbeAppends {
		k := sample[jobs%len(sample)]
		wire, err := b.body(k)
		var recs []journal.Record
		if err == nil {
			recs, err = jobRecords(fmt.Sprintf("p%d", jobs), wire, b.gate.served(k))
		}
		if err != nil {
			_ = jrn.Close()
			return err
		}
		for _, rec := range recs {
			t0 := time.Now()
			err := jrn.Append(rec, true)
			p.appends.add(time.Since(t0))
			if err != nil {
				_ = jrn.Close()
				return err
			}
		}
		jobs++
	}
	if err := jrn.Close(); err != nil {
		return err
	}
	size, err := dirBytes(dir)
	p.bytesPerJob = ratio(float64(size), float64(jobs))
	return err
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// layers computes the per-layer metrics. svc and rtr are the salsad
// (summed over backends) and router counter deltas over the timed phase.
func (b *bench) layers(t *timedLog, v *verifyLog, p *probes, spans []span, svc, rtr map[string]int64) (map[string]float64, error) {
	durs := make(map[string][]float64)
	for _, s := range spans {
		durs[s.name] = append(durs[s.name], float64(s.end-s.start))
	}
	spanMedian := func(name string, unit time.Duration) float64 { return median(durs[name]) / float64(unit) }

	hits, misses := t.hit, t.miss
	b.mu.Lock()
	hits.merge(&b.hits)
	misses.merge(&b.misses)
	b.mu.Unlock()

	m := map[string]float64{
		"service.cache_hit_ratio": ratio(float64(svc["cache_hits_total"]), float64(svc["cache_hits_total"]+svc["cache_misses_total"])),
		"service.engine_runs":     float64(svc["engine_invocations_total"]),
		"service.flight_shared":   float64(svc["singleflight_shared_total"]),
		"service.rejected":        float64(svc["responses_total_408"] + svc["responses_total_429"] + svc["responses_total_503"]),
		"service.hit_us":          hits.median() / 1e3,
		"service.miss_ms":         misses.median() / 1e6,
		"service.unmarshal_us":    spanMedian("service.unmarshal", time.Microsecond),
		"service.encode_us":       spanMedian("service.encode", time.Microsecond),
		"service.polls_per_job":   0,
		"cdfg.parse_us":           spanMedian("cdfg.parse", time.Microsecond),
		"cdfg.fingerprint_us":     spanMedian("cdfg.fingerprint", time.Microsecond),
		"salsa.compile_us":        spanMedian("salsa.compile", time.Microsecond),
		"engine.run_ms":           spanMedian("engine.run", time.Millisecond),
		"engine.job_ms":           spanMedian("engine.job", time.Millisecond),
		"engine.jobs_per_run":     ratio(float64(v.jobs), float64(v.replays)),
		"engine.pruned_ratio":     ratio(float64(v.pruned), float64(v.jobs)),
		"core.moves_tried":        float64(v.moves),
		"core.trials":             float64(v.trials),
		"core.accept_ratio":       ratio(float64(v.accepted), float64(v.moves)),
		"core.ns_per_move":        ratio(float64(v.run.Nanoseconds()), float64(v.moves)),
		"core.allocs_per_run":     p.allocs,
		"core.bytes_per_run":      p.bytes,
		"binding.check_us":        spanMedian("binding.check", time.Microsecond),
		"journal.append_sync_us":  p.appends.median() / 1e3,
		"journal.bytes_per_job":   p.bytesPerJob,
		"cluster.owner_ns":        p.ownerNS,
		// Set below when the workload's ops reach the layer.
		"journal.append_sync_us_p99": 0,
		"cluster.router_hit_ratio":   0,
		"cluster.hop_us":             0,
		"cluster.shard_skew":         0,
		"cluster.failovers":          0,
	}
	if b.w.jobs {
		m["service.polls_per_job"] = ratio(float64(t.polls), float64(t.ok+t.failed))
		p99, _, err := percentile(&p.appends, 0.99)
		if err != nil {
			return nil, fmt.Errorf("journal.append_sync_us_p99: %w", err)
		}
		m["journal.append_sync_us_p99"] = p99 / 1e3
	}
	if b.env.router != nil {
		m["cluster.router_hit_ratio"] = ratio(float64(rtr["cache_hits_total"]), float64(rtr["cache_hits_total"]+rtr["cache_misses_total"]))
		if t.proxied.n > 0 && t.routerHit.n > 0 {
			m["cluster.hop_us"] = (t.proxied.median() - t.routerHit.median()) / 1e3
		}
		var most, total float64
		for _, name := range b.env.names {
			n := float64(rtr["served_total_"+name])
			most, total = max(most, n), total+n
		}
		m["cluster.shard_skew"] = ratio(most, total/float64(len(b.env.names)))
		m["cluster.failovers"] = float64(rtr["failover_total"])
	}
	return m, nil
}

// delta returns after−before for every counter in after.
func delta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
