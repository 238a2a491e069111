package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"salsa"
	"salsa/internal/cdfg"
	"salsa/internal/engine"
	"salsa/internal/service"
)

// span is one timed interval at a layer boundary.
type span struct {
	trace  uint64
	id     int32 // unique within its trace
	parent int32 // 0 for a root span
	name   string
	start  int64 // ns since the tracer's epoch
	end    int64
	// The X-Salsa-Cache, X-Salsa-Flight and X-Salsa-Shard headers of an
	// HTTP exchange.
	cache, flight, shard string
}

// tracer hands out trace IDs and collects spans in memory until the run
// writes them out. A nil *tracer traces nothing.
type tracer struct {
	epoch  time.Time
	traces atomic.Uint64
	mu     sync.Mutex
	bufs   []*traceBuf // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buffer returns a span buffer for one goroutine; nil when t is nil.
func (t *tracer) buffer() *traceBuf {
	if t == nil {
		return nil
	}
	b := &traceBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// spans returns every span recorded so far. Call it once the goroutines
// owning the buffers are done.
func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// spanRef names a span in its buffer; noSpan is "none".
type spanRef int

const noSpan spanRef = -1

// traceBuf holds one goroutine's spans. Its methods do nothing on a nil
// receiver, so untraced runs share the traced code path.
type traceBuf struct {
	t     *tracer
	spans []span
}

// span records a finished span under parent, or as the root of a new
// trace when parent is noSpan.
func (b *traceBuf) span(parent spanRef, name string, start, end time.Time) spanRef {
	if b == nil {
		return noSpan
	}
	s := span{name: name, start: start.Sub(b.t.epoch).Nanoseconds(), end: end.Sub(b.t.epoch).Nanoseconds()}
	if parent == noSpan {
		s.trace = b.t.traces.Add(1)
		s.id = 1
	} else {
		p := &b.spans[parent]
		s.trace, s.parent = p.trace, p.id
		s.id = int32(len(b.spans) + 2) // unique: roots are 1, a buffer's indexes never repeat
	}
	b.spans = append(b.spans, s)
	return spanRef(len(b.spans) - 1)
}

// begin opens a span that finish closes.
func (b *traceBuf) begin(parent spanRef, name string) spanRef {
	now := time.Now()
	return b.span(parent, name, now, now)
}

func (b *traceBuf) finish(ref spanRef) {
	if b == nil || ref == noSpan {
		return
	}
	b.spans[ref].end = time.Since(b.t.epoch).Nanoseconds()
}

// exchange records an HTTP exchange's span with its provenance headers.
func (b *traceBuf) exchange(parent spanRef, name string, start, end time.Time, rep reply) {
	ref := b.span(parent, name, start, end)
	if ref == noSpan {
		return
	}
	s := &b.spans[ref]
	s.cache, s.flight, s.shard = rep.cache, rep.flight, rep.shard
}

// spanJSON is one line of a span file.
type spanJSON struct {
	Trace  string     `json:"trace_id"`
	ID     int32      `json:"span_id"`
	Parent int32      `json:"parent_id"`
	Name   string     `json:"name"`
	Start  int64      `json:"start_ns"`
	End    int64      `json:"end_ns"`
	Attrs  *spanAttrs `json:"attrs,omitempty"`
}

type spanAttrs struct {
	Cache  string `json:"cache,omitempty"`
	Flight string `json:"flight,omitempty"`
	Shard  string `json:"shard,omitempty"`
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		line := spanJSON{Trace: fmt.Sprintf("%016x", s.trace), ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: s.end}
		if s.cache != "" || s.flight != "" || s.shard != "" {
			line.Attrs = &spanAttrs{Cache: s.cache, Flight: s.flight, Shard: s.shard}
		}
		if err := enc.Encode(line); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// replayed is one request run through the library's public pipeline.
type replayed struct {
	body  []byte // the response body salsad serves for the request
	des   *salsa.Design
	res   *salsa.Result
	stats *salsa.Stats
	// fingerprint is the graph's content address.
	fingerprint string
	run         time.Duration // engine.run wall time
}

// replay runs one wire request through the stages a cache miss passes
// inside salsad — decode, parse, fingerprint, compile, search, legality
// check, encode — calling each stage's public function directly, with
// one engine worker. It records one span per stage under an open root
// "replay" span, which the caller finishes.
func replay(tb *traceBuf, wire []byte) (*replayed, spanRef, error) {
	root := tb.begin(noSpan, "replay")
	stage := func(name string, f func() error) error {
		sp := tb.begin(root, name)
		err := f()
		tb.finish(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var (
		ar  service.AllocateRequest
		g   *cdfg.Graph
		out replayed
	)
	err := stage("service.unmarshal", func() error { return json.Unmarshal(wire, &ar) })
	if err == nil {
		err = stage("cdfg.parse", func() (err error) { g, err = cdfg.ParseJSON(ar.Graph); return err })
	}
	if err != nil {
		return nil, root, err
	}
	_ = stage("cdfg.fingerprint", func() error { out.fingerprint = g.Fingerprint(); return nil })
	req := salsa.Request{
		Graph: g,
		Params: salsa.Params{
			Steps: ar.Steps, PipelinedMultipliers: ar.PipelinedMultipliers, ExtraRegisters: ar.ExtraRegisters,
			DisablePassHardware: ar.DisablePassHardware, ForceDirected: ar.ForceDirected,
		},
		Mode: ar.Mode, Seed: ar.Seed, Restarts: ar.Restarts,
	}.Normalize()
	if req.Mode != "salsa" {
		return nil, root, fmt.Errorf("replay handles salsa mode only, not %q", req.Mode)
	}
	if err := stage("salsa.compile", func() (err error) { out.des, err = salsa.Compile(g, req.Params); return err }); err != nil {
		return nil, root, err
	}

	jobs := salsa.Restarts(salsa.SALSAOptions(req.Seed), req.Restarts)
	started := make([]time.Duration, len(jobs))
	cfg := salsa.EngineConfig{Workers: 1, Events: func(ev salsa.Event) {
		if ev.Kind == engine.EventJobStarted {
			started[ev.Job] = ev.Elapsed
		}
	}}
	t0 := time.Now()
	out.res, out.stats, err = out.des.AllocatePortfolio(context.Background(), jobs, cfg)
	t1 := time.Now()
	out.run = t1.Sub(t0)
	run := tb.span(root, "engine.run", t0, t1)
	if err != nil {
		return nil, root, fmt.Errorf("engine.run: %w", err)
	}
	for i, jr := range out.stats.PerJob {
		// The engine stamps events from its own start, a hair after t0.
		s := t0.Add(started[i])
		tb.span(run, "engine.job", s, s.Add(jr.Duration))
	}

	if err := stage("binding.check", out.res.Binding.Check); err != nil {
		return nil, root, err
	}
	err = stage("service.encode", func() error {
		rj := salsa.BuildResultJSON(g, out.des.Steps(), req.Mode, req.Seed, req.Restarts, out.res, out.stats)
		body, err := json.Marshal(rj)
		out.body = append(body, '\n')
		return err
	})
	if err != nil {
		return nil, root, err
	}
	if out.stats.Cancelled > 0 {
		return nil, root, errors.New("replay was cut short by a deadline")
	}
	return &out, root, nil
}
