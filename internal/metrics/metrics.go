// Package metrics is the one metrics registry of salsad, the router
// and the engine. An owner declares each metric once, as an exported
// field of its metrics struct whose tags give the family's name and
// help text:
//
//	type serverMetrics struct {
//		CacheHits metrics.Counter `metric:"salsa_cache_hits_total" help:"Result-cache hits."`
//	}
//
// New walks the struct once. Code then updates the fields directly,
// with no name lookup (a Counter, Gauge or Histogram is atomics; a
// CounterVec takes a mutex), and the Registry renders every family
// from the same declarations, in field order, two ways: as Prometheus
// text (WritePrometheus) and as a flat map (Snapshot).
//
// The tags are
//
//   - metric: the family's name (required);
//   - help: its HELP text;
//   - label: the label name of a CounterVec or GaugeVecFunc;
//   - key: its snapshot key, when that is not the name with the
//     registry's prefix trimmed.
//
// A Counter, Gauge or GaugeFunc snapshots as its key, a CounterVec as
// one key_<label value> per sample, a GaugeVecFunc as the sum of its
// samples, and a Histogram as key_sum and key_count.
package metrics

import (
	"cmp"
	"expvar"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a cumulative count.
type Counter struct{ atomic.Int64 }

// String renders the count, which makes a Counter an expvar.Var.
func (c *Counter) String() string { return strconv.FormatInt(c.Load(), 10) }

// Gauge is a value that goes up and down.
type Gauge struct{ atomic.Int64 }

// GaugeFunc is a gauge read from a function whenever it is rendered.
type GaugeFunc func() int64

// Load calls the function.
func (g GaugeFunc) Load() int64 { return g() }

// GaugeVecFunc is a gauge family with one label, read from a function
// whenever it is rendered: the function calls emit once per sample, in
// the order the samples render.
type GaugeVecFunc func(emit func(label string, v int64))

func (g GaugeVecFunc) each(emit func(label string, v int64)) { g(emit) }

// CounterVec is a counter family with one label. Its samples render in
// ascending label order. The zero value is ready to use.
type CounterVec[K cmp.Ordered] struct {
	mu     sync.Mutex
	counts map[K]int64 // guarded by mu
}

// Inc adds one to label's count.
func (v *CounterVec[K]) Inc(label K) {
	v.mu.Lock()
	if v.counts == nil {
		v.counts = make(map[K]int64)
	}
	v.counts[label]++
	v.mu.Unlock()
}

func (v *CounterVec[K]) each(emit func(label string, v int64)) {
	v.mu.Lock()
	labels := make([]K, 0, len(v.counts))
	for k := range v.counts {
		labels = append(labels, k)
	}
	slices.Sort(labels)
	counts := make([]int64, len(labels))
	for i, k := range labels {
		counts[i] = v.counts[k]
	}
	v.mu.Unlock()
	for i, k := range labels {
		emit(fmt.Sprint(k), counts[i])
	}
}

// bucketsMS are every Histogram's bucket upper bounds, in milliseconds.
var bucketsMS = [...]int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// Histogram is a fixed-bucket latency histogram in milliseconds,
// rendered in Prometheus's cumulative-bucket convention.
type Histogram struct {
	counts [len(bucketsMS) + 1]atomic.Int64 // the last is +Inf
	sumMS  atomic.Int64
	count  atomic.Int64
}

// Observe records one duration, truncated to whole milliseconds.
func (h *Histogram) Observe(d time.Duration) {
	ms := d.Milliseconds()
	i, _ := slices.BinarySearch(bucketsMS[:], ms)
	h.counts[i].Add(1)
	h.sumMS.Add(ms)
	h.count.Add(1)
}

// kind reports each metric type's Prometheus TYPE.
func (*Counter) kind() string       { return "counter" }
func (*Gauge) kind() string         { return "gauge" }
func (GaugeFunc) kind() string      { return "gauge" }
func (GaugeVecFunc) kind() string   { return "gauge" }
func (*CounterVec[K]) kind() string { return "counter" }
func (*Histogram) kind() string     { return "histogram" }

type metric interface{ kind() string }

// scalar is a family of one sample: Counter, Gauge or GaugeFunc.
type scalar interface{ Load() int64 }

// labelled is a family with one label: CounterVec or GaugeVecFunc.
type labelled interface {
	each(emit func(label string, v int64))
}

type family struct {
	name, help, label, key string
	metric                 metric // a pointer to the declaring field
}

// Registry renders the families one struct declares.
type Registry struct {
	families []family
}

// New declares every field of the struct owner points to as one
// family, in field order, and keys each family's snapshot by its name
// with prefix trimmed unless a key tag says otherwise. Every field must
// be an exported metric with a metric tag; New panics otherwise, since
// that is a bug in the declaration.
func New(owner any, prefix string) *Registry {
	v := reflect.ValueOf(owner).Elem()
	r := &Registry{}
	for i := 0; i < v.NumField(); i++ {
		field := v.Type().Field(i)
		m, ok := v.Field(i).Addr().Interface().(metric)
		f := family{name: field.Tag.Get("metric"), help: field.Tag.Get("help"),
			label: field.Tag.Get("label"), key: field.Tag.Get("key"), metric: m}
		if !ok || f.name == "" {
			panic(fmt.Sprintf("metrics: field %s is not a metric with a metric tag", field.Name))
		}
		if f.key == "" {
			f.key = strings.TrimPrefix(f.name, prefix)
		}
		r.families = append(r.families, f)
	}
	return r
}

// WritePrometheus renders every family in the Prometheus text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, f := range r.families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.metric.kind())
		switch m := f.metric.(type) {
		case scalar:
			fmt.Fprintf(w, "%s %d\n", f.name, m.Load())
		case labelled:
			m.each(func(label string, v int64) { fmt.Fprintf(w, "%s{%s=%q} %d\n", f.name, f.label, label, v) })
		case *Histogram:
			var cum int64
			for i, bound := range bucketsMS {
				cum += m.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", f.name, bound, cum)
			}
			cum += m.counts[len(bucketsMS)].Load()
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
				f.name, cum, f.name, m.sumMS.Load(), f.name, m.count.Load())
		}
	}
}

// Snapshot returns every family's current values as a flat map.
func (r *Registry) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	for _, f := range r.families {
		switch m := f.metric.(type) {
		case scalar:
			out[f.key] = m.Load()
		case *GaugeVecFunc:
			out[f.key] = 0
			m.each(func(_ string, v int64) { out[f.key] += v })
		case labelled:
			m.each(func(label string, v int64) { out[f.key+"_"+label] = v })
		case *Histogram:
			out[f.key+"_sum"] = m.sumMS.Load()
			out[f.key+"_count"] = m.count.Load()
		}
	}
	return out
}

// PublishExpvar publishes every Counter to expvar under its family
// name. expvar panics on a name published twice, so a process calls it
// once per registry.
func (r *Registry) PublishExpvar() {
	for _, f := range r.families {
		if c, ok := f.metric.(*Counter); ok {
			expvar.Publish(f.name, c)
		}
	}
}
