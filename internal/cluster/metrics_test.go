package cluster

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"salsa/internal/clock"
	"salsa/internal/service"
	"salsa/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden")

// handlerDoer serves each request in process with the handler named by
// its URL host, so backend names are fixed, and with them the ring's
// placement and every backend label.
type handlerDoer map[string]http.Handler

func (d handlerDoer) Do(req *http.Request) (*http.Response, error) {
	h, ok := d[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("handlerDoer: no backend %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// engineSample matches one sample of the engine's process-wide
// counters, whose values depend on every run in the test binary.
// salsa_engine_invocations_total is a per-server counter and stays.
var engineSample = regexp.MustCompile(`(?m)^(salsa_engine_[a-z_]+(?:\{[^}]*\})?) \d+$`)

func maskEngine(text string) string {
	return engineSample.ReplaceAllStringFunc(text, func(line string) string {
		if strings.HasPrefix(line, "salsa_engine_invocations_total") {
			return line
		}
		return line[:strings.LastIndexByte(line, ' ')] + " <engine>"
	})
}

// scriptedMix sends one allocation miss, its repeat (a hit), a
// malformed body (400), the same body as a job and a poll for it, a
// poll for an unknown job (404), healthz and readyz, and finally
// scrapes /metrics. It returns the scrape.
func scriptedMix(t *testing.T, h http.Handler) string {
	t.Helper()
	do := func(method, path string, body []byte, want int) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, rec.Code, want, rec.Body)
		}
		return rec.Body.Bytes()
	}
	body := allocBody(t, workloads.Figure1(), 1)
	do(http.MethodPost, "/allocate", body, http.StatusOK)
	do(http.MethodPost, "/allocate", body, http.StatusOK)
	do(http.MethodPost, "/allocate", []byte("{"), http.StatusBadRequest)
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(do(http.MethodPost, "/jobs", body, http.StatusAccepted), &job); err != nil {
		t.Fatal(err)
	}
	do(http.MethodGet, "/jobs/"+job.ID, nil, http.StatusOK)
	do(http.MethodGet, "/jobs/nope", nil, http.StatusNotFound)
	do(http.MethodGet, "/healthz", nil, http.StatusOK)
	do(http.MethodGet, "/readyz", nil, http.StatusOK)
	return string(do(http.MethodGet, "/metrics", nil, http.StatusOK))
}

// formatSnapshot renders a MetricsSnapshot one sorted "key value"
// line at a time.
func formatSnapshot(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, m[k])
	}
	return b.String()
}

// TestMetricsGolden pins what salsad and the router expose after the
// same scripted mix of requests: the /metrics bytes, with the engine's
// process-wide values masked, and every MetricsSnapshot key and value.
// Virtual clocks fix the latency histograms. Run with -update to
// rewrite testdata/metrics.golden.
func TestMetricsGolden(t *testing.T) {
	newSalsad := func() *service.Server {
		return service.New(service.Config{Hooks: &service.Hooks{Clock: clock.NewVirtual()}})
	}
	var got strings.Builder

	svc := newSalsad()
	text := scriptedMix(t, svc.Handler())
	assertFamiliesContiguous(t, "salsad", text)
	fmt.Fprintf(&got, "== salsad /metrics\n%s== salsad MetricsSnapshot\n%s", maskEngine(text), formatSnapshot(svc.MetricsSnapshot()))

	// /debug/vars carries the service snapshot and every engine
	// counter /metrics renders.
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if _, ok := vars["salsa_service"]; !ok {
		t.Error("/debug/vars lacks salsa_service")
	}
	for _, m := range engineSample.FindAllStringSubmatch(text, -1) {
		if _, ok := vars[m[1]]; !ok && m[1] != "salsa_engine_invocations_total" {
			t.Errorf("/debug/vars lacks %s", m[1])
		}
	}

	doer := handlerDoer{"salsad-a": newSalsad().Handler(), "salsad-b": newSalsad().Handler()}
	router, err := New(Config{Backends: []string{"http://salsad-a", "http://salsad-b"}, Doer: doer})
	if err != nil {
		t.Fatal(err)
	}
	text = scriptedMix(t, router.Handler())
	assertFamiliesContiguous(t, "router", text)
	fmt.Fprintf(&got, "== router /metrics\n%s== router MetricsSnapshot\n%s", maskEngine(text), formatSnapshot(router.MetricsSnapshot()))

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("metrics differ from %s (run with -update after an intended change)\n got:\n%s\nwant:\n%s", path, got.String(), want)
	}
}

// assertFamiliesContiguous fails the test when the lines of one metric
// family (its HELP, its TYPE and its samples) are split by another
// family's lines, which the Prometheus text format forbids.
func assertFamiliesContiguous(t *testing.T, where, text string) {
	t.Helper()
	left := map[string]bool{}
	cur := ""
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		fam := familyOf(line, cur)
		if fam == cur {
			continue
		}
		if left[fam] {
			t.Errorf("%s /metrics: family %s resumes at %q after another family", where, fam, line)
		}
		left[cur] = true
		cur = fam
	}
}

// familyOf names the metric family a /metrics line belongs to. A
// histogram's _bucket, _sum and _count samples belong to cur, the
// family whose lines precede them.
func familyOf(line, cur string) string {
	if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && (f[1] == "HELP" || f[1] == "TYPE") {
		return f[2]
	}
	name, _, _ := strings.Cut(line, " ")
	name, _, _ = strings.Cut(name, "{")
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if cur != "" && name == cur+suffix {
			return cur
		}
	}
	return name
}
