package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"salsa/internal/cdfg"
	"salsa/internal/workloads"
)

// TestServiceSmoke hammers a server with 200 concurrent mixed requests:
// repeated graphs (cache hits and singleflight shares), distinct seeds
// (misses), and 1ms deadlines (expected 408s). Every response must be a
// well-understood status — never a 5xx — and the cache hit rate and the
// body table's hits must be positive.
//
// By default it runs against an in-process httptest server; when
// SALSAD_URL is set (CI boots a real salsad binary) it targets that
// daemon instead.
func TestServiceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test is load-shaped; skipped in -short")
	}
	base := os.Getenv("SALSAD_URL")
	if base == "" {
		s := New(Config{MaxConcurrent: 2, MaxQueue: 64})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		base = ts.URL
	}

	graphs := []*cdfg.Graph{
		workloads.Figure1(),
		workloads.Diffeq(),
		workloads.FIR8(),
		workloads.Tseng(),
	}
	type req struct {
		body []byte
		kind string // "normal" or "tiny-deadline"
	}
	const total = 200
	reqs := make([]req, 0, total)
	for i := 0; i < total; i++ {
		g := graphs[i%len(graphs)]
		doc := map[string]any{"graph": json.RawMessage(mustMarshalSmoke(t, g)), "restarts": 2}
		kind := "normal"
		switch {
		case i%17 == 0:
			// A 1ms deadline: expect 408 (deadline before any
			// allocation) or, rarely, a fast 200.
			doc["timeout_ms"] = 1
			kind = "tiny-deadline"
		case i%11 == 0:
			// Distinct seeds force cache misses alongside the repeats.
			doc["seed"] = 100 + i
		}
		body, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req{body: body, kind: kind})
	}

	client := &http.Client{Timeout: 2 * time.Minute}

	// Warm the cache with one synchronous request per base graph.
	// Without this, the concurrent wave's identical requests all
	// collapse into singleflights (shared, not hits) and the hit-rate
	// assertion would measure only scheduling luck.
	for _, g := range graphs {
		body, err := json.Marshal(map[string]any{"graph": json.RawMessage(mustMarshalSmoke(t, g)), "restarts": 2})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(base+"/allocate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("warmup request: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup request: status %d", resp.StatusCode)
		}
	}

	var wg sync.WaitGroup
	var counts [600]atomic.Int64
	var hits atomic.Int64
	for _, r := range reqs {
		wg.Add(1)
		go func(r req) {
			defer wg.Done()
			resp, err := client.Post(base+"/allocate", "application/json", bytes.NewReader(r.body))
			if err != nil {
				t.Errorf("request failed: %v", err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			counts[resp.StatusCode].Add(1)
			if resp.Header.Get("X-Salsa-Cache") == "hit" {
				hits.Add(1)
			}
		}(r)
	}
	wg.Wait()

	var served, fivexx int64
	for code := range counts {
		n := counts[code].Load()
		if n == 0 {
			continue
		}
		served += n
		t.Logf("status %d: %d responses", code, n)
		switch code {
		case http.StatusOK, http.StatusRequestTimeout, http.StatusTooManyRequests:
		default:
			if code >= 500 {
				fivexx += n
			}
			t.Errorf("unexpected status %d (%d responses)", code, n)
		}
	}
	if served != total {
		t.Errorf("served %d responses, want %d", served, total)
	}
	if fivexx != 0 {
		t.Errorf("%d server errors under load, want 0", fivexx)
	}
	if counts[http.StatusOK].Load() == 0 {
		t.Error("no successful allocations at all")
	}

	// Cache effectiveness: the repeats must have hit. The header count
	// covers the in-process path; /metrics proves it for a remote salsad
	// too (cumulative counters, so only positivity is asserted).
	if hits.Load() == 0 {
		t.Error("no cache hits across 200 requests with repeated graphs")
	}
	metricHits := scrapeCounter(t, client, base, "salsa_cache_hits_total")
	if metricHits <= 0 {
		t.Errorf("salsa_cache_hits_total = %d, want > 0", metricHits)
	}
	t.Logf("cache hits: %d direct, %d cumulative in /metrics", hits.Load(), metricHits)

	// The "normal" requests are byte-identical to the warm-up bodies, so
	// the body table must have served some of them without a decode.
	if digestHits := scrapeCounter(t, client, base, "salsa_body_digest_hits_total"); digestHits <= 0 {
		t.Errorf("salsa_body_digest_hits_total = %d, want > 0", digestHits)
	}
}

func mustMarshalSmoke(t *testing.T, g *cdfg.Graph) []byte {
	t.Helper()
	b, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// scrapeCounter fetches /metrics and extracts one un-labelled series.
func scrapeCounter(t *testing.T, client *http.Client, base, name string) int64 {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scraping metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(fmt.Sprintf(`(?m)^%s (\d+)$`, regexp.QuoteMeta(name)))
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("metrics output has no series %q", name)
	}
	v, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
