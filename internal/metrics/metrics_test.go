package metrics

import (
	"expvar"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// every declares one family of each kind.
type every struct {
	Hits    Counter         `metric:"t_hits_total" help:"Hits."`
	Depth   Gauge           `metric:"t_depth" help:"Depth."`
	Entries GaugeFunc       `metric:"t_entries" help:"Entries."`
	Codes   CounterVec[int] `metric:"t_responses_total" label:"code" key:"codes" help:"Responses by code."`
	Up      GaugeVecFunc    `metric:"t_up" label:"backend" key:"up_count" help:"Up."`
	Latency Histogram       `metric:"t_duration_ms" help:"Latency."`
}

func TestRender(t *testing.T) {
	m := &every{}
	m.Entries = func() int64 { return 7 }
	m.Up = func(emit func(string, int64)) {
		emit("zeta", 1)
		emit("alpha", 0)
		emit("mid", 1)
	}
	r := New(m, "t_")
	m.Hits.Add(3)
	m.Depth.Add(2)
	m.Depth.Add(-1)
	for _, code := range []int{404, 10, 200, 9, 200} {
		m.Codes.Inc(code)
	}
	for _, d := range []time.Duration{0, time.Millisecond, 1500 * time.Microsecond, 2 * time.Millisecond, 30 * time.Second, 31 * time.Second} {
		m.Latency.Observe(d)
	}

	var b strings.Builder
	r.WritePrometheus(&b)
	want := `# HELP t_hits_total Hits.
# TYPE t_hits_total counter
t_hits_total 3
# HELP t_depth Depth.
# TYPE t_depth gauge
t_depth 1
# HELP t_entries Entries.
# TYPE t_entries gauge
t_entries 7
# HELP t_responses_total Responses by code.
# TYPE t_responses_total counter
t_responses_total{code="9"} 1
t_responses_total{code="10"} 1
t_responses_total{code="200"} 2
t_responses_total{code="404"} 1
# HELP t_up Up.
# TYPE t_up gauge
t_up{backend="zeta"} 1
t_up{backend="alpha"} 0
t_up{backend="mid"} 1
# HELP t_duration_ms Latency.
# TYPE t_duration_ms histogram
t_duration_ms_bucket{le="1"} 3
t_duration_ms_bucket{le="2"} 4
t_duration_ms_bucket{le="5"} 4
t_duration_ms_bucket{le="10"} 4
t_duration_ms_bucket{le="25"} 4
t_duration_ms_bucket{le="50"} 4
t_duration_ms_bucket{le="100"} 4
t_duration_ms_bucket{le="250"} 4
t_duration_ms_bucket{le="500"} 4
t_duration_ms_bucket{le="1000"} 4
t_duration_ms_bucket{le="2500"} 4
t_duration_ms_bucket{le="5000"} 4
t_duration_ms_bucket{le="10000"} 4
t_duration_ms_bucket{le="30000"} 5
t_duration_ms_bucket{le="+Inf"} 6
t_duration_ms_sum 61004
t_duration_ms_count 6
`
	if b.String() != want {
		t.Errorf("WritePrometheus:\n%s\nwant:\n%s", b.String(), want)
	}

	wantSnap := map[string]int64{
		"hits_total": 3, "depth": 1, "entries": 7,
		"codes_9": 1, "codes_10": 1, "codes_200": 2, "codes_404": 1,
		"up_count":        2,
		"duration_ms_sum": 61004, "duration_ms_count": 6,
	}
	if got := r.Snapshot(); !reflect.DeepEqual(got, wantSnap) {
		t.Errorf("Snapshot = %v, want %v", got, wantSnap)
	}
}

func TestNewRejectsBadDeclarations(t *testing.T) {
	for name, owner := range map[string]any{
		"untagged": &struct {
			Hits Counter
		}{},
		"not a metric": &struct {
			N int64 `metric:"t_n"`
		}{},
		"unexported": &struct {
			hits Counter `metric:"t_hits_total"`
		}{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", name)
				}
			}()
			New(owner, "")
		}()
	}
}

// published is registered with expvar once per test binary, since
// expvar panics on a second publication (as under -count).
var (
	published struct {
		Hits  Counter `metric:"metrics_test_hits_total" help:"Hits."`
		Depth Gauge   `metric:"metrics_test_depth" help:"Depth."`
	}
	publishOnce sync.Once
)

func TestPublishExpvar(t *testing.T) {
	publishOnce.Do(New(&published, "").PublishExpvar)
	want := fmt.Sprint(published.Hits.Add(42))
	if v := expvar.Get("metrics_test_hits_total"); v == nil || v.String() != want {
		t.Errorf("expvar metrics_test_hits_total = %v, want %s", v, want)
	}
	if v := expvar.Get("metrics_test_depth"); v != nil {
		t.Errorf("a gauge was published to expvar: %v", v)
	}
}

// TestConcurrentUpdates updates every kind of family from several
// goroutines while the registry renders, for -race; the totals must
// come out exact.
func TestConcurrentUpdates(t *testing.T) {
	const workers, rounds = 4, 500
	m := &every{}
	var entries atomic.Int64
	m.Entries = entries.Load
	var up [workers]atomic.Int64
	m.Up = func(emit func(string, int64)) {
		for i := range up {
			emit(fmt.Sprint(i), up[i].Load())
		}
	}
	r := New(m, "t_")

	stop := make(chan struct{})
	rendered := make(chan struct{})
	go func() {
		defer close(rendered)
		for {
			select {
			case <-stop:
				return
			default:
				r.WritePrometheus(io.Discard)
				r.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m.Hits.Add(1)
				m.Depth.Add(1)
				m.Depth.Add(-1)
				entries.Add(1)
				up[w].Store(int64(i % 2))
				m.Codes.Inc(200 + w)
				m.Latency.Observe(time.Duration(i) * time.Millisecond)
			}
			up[w].Store(1)
		}(w)
	}
	wg.Wait()
	close(stop)
	<-rendered

	s := r.Snapshot()
	if s["hits_total"] != workers*rounds || s["depth"] != 0 || s["entries"] != workers*rounds ||
		s["up_count"] != workers || s["duration_ms_count"] != workers*rounds {
		t.Errorf("totals off: %v", s)
	}
	for w := 0; w < workers; w++ {
		if got := s[fmt.Sprintf("codes_%d", 200+w)]; got != rounds {
			t.Errorf("codes_%d = %d, want %d", 200+w, got, rounds)
		}
	}
}
