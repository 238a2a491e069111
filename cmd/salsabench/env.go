package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"salsa/internal/cluster"
	"salsa/internal/journal"
	"salsa/internal/service"
)

// salsadConfig is the service.Config that cmd/salsad builds from its
// default flags.
func salsadConfig() service.Config {
	return service.Config{
		CacheEntries:   256,
		MaxConcurrent:  2,
		MaxQueue:       64,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     2 * time.Minute,
		EngineWorkers:  0,
	}
}

// routerConfig is the cluster.Config that `cmd/salsad -route` builds
// from its default flags, apart from Doer (see boot).
func routerConfig(backends []string) cluster.Config {
	return cluster.Config{
		Backends:      backends,
		ProbeInterval: 500 * time.Millisecond,
		CacheEntries:  256,
	}
}

// env is one booted set of components, each served on its own loopback
// TCP listener: one salsad, or several behind the cluster router.
type env struct {
	base    string // URL the load clients send to
	servers []*service.Server
	router  *cluster.Router
	// names are the backends as the router knows them; shardURL maps
	// each to the URL of its listener.
	names    []string
	shardURL map[string]string

	stopProbes context.CancelFunc
	https      []*http.Server
	serving    sync.WaitGroup

	journal    *journal.Journal
	journalDir string
}

// boot starts w's components.
func boot(w workload) (e *env, err error) {
	e = &env{shardURL: make(map[string]string)}
	defer func() {
		if err != nil {
			_ = e.close()
		}
	}()
	dial := make(map[string]string)
	for i := 0; i < w.backends; i++ {
		cfg := salsadConfig()
		if w.jobs {
			if e.journalDir, err = os.MkdirTemp("", "salsabench-journal-"); err != nil {
				return e, err
			}
			if e.journal, err = journal.Open(e.journalDir); err != nil {
				return e, err
			}
			cfg.Journal = e.journal
			cfg.MaxJobs = maxJobs
		}
		svc := service.New(cfg)
		e.servers = append(e.servers, svc)
		url, err := e.serve(svc.Handler())
		if err != nil {
			return e, err
		}
		// The backend names of the README's 3-backend quickstart.
		addr := fmt.Sprintf("127.0.0.1:%d", 8081+i)
		name := "http://" + addr
		e.names = append(e.names, name)
		e.shardURL[name] = url
		dial[addr] = strings.TrimPrefix(url, "http://")
		e.base = url
	}
	if w.backends == 1 {
		return e, nil
	}
	// The ring hashes backend names. Fixed names, resolved to the
	// listeners only when dialing, keep the key-to-shard map the same
	// from run to run instead of following ephemeral port numbers, and
	// the same as in the deployment the README describes.
	tr := loopbackTransport()
	var d net.Dialer
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := dial[addr]; ok {
			addr = real
		}
		return d.DialContext(ctx, network, addr)
	}
	cfg := routerConfig(e.names)
	cfg.Doer = &http.Client{Transport: tr}
	if e.router, err = cluster.New(cfg); err != nil {
		return e, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.stopProbes = cancel
	e.router.Start(ctx)
	e.base, err = e.serve(e.router.Handler())
	return e, err
}

// serve serves h on a fresh loopback listener and returns its URL.
func (e *env) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	e.https = append(e.https, srv)
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		// Serve returns http.ErrServerClosed once close runs.
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners, waits for in-flight work, and closes and
// removes the journal.
func (e *env) close() error {
	if e.stopProbes != nil {
		e.stopProbes()
	}
	for _, srv := range e.https {
		// Close's error is the listener's; the process is done with it.
		_ = srv.Close()
	}
	e.serving.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, svc := range e.servers {
		errs = append(errs, svc.Drain(ctx))
	}
	if e.journal != nil {
		errs = append(errs, e.journal.Close())
	}
	if e.journalDir != "" {
		errs = append(errs, os.RemoveAll(e.journalDir))
	}
	return errors.Join(errs...)
}

// counters sums the salsad counters over every backend.
func (e *env) counters() map[string]int64 {
	sum := make(map[string]int64)
	for _, svc := range e.servers {
		for k, v := range svc.MetricsSnapshot() {
			sum[k] += v
		}
	}
	return sum
}

// loopbackTransport is http.DefaultTransport without proxies: every
// exchange of the benchmark stays on the loopback interface.
func loopbackTransport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	return tr
}

// client is one load generator's connection to the system under test.
type client struct {
	hc *http.Client
	tr *http.Transport
}

// newClient returns a client held to a single keep-alive connection
// per host.
func newClient() *client {
	tr := loopbackTransport()
	tr.MaxConnsPerHost = 1
	tr.MaxIdleConnsPerHost = 1
	return &client{hc: &http.Client{Transport: tr}, tr: tr}
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	// The X-Salsa-Cache, X-Salsa-Flight and X-Salsa-Shard provenance
	// headers.
	cache, flight, shard string
}

// do performs one exchange; a nil body sends none.
func (c *client) do(method, url string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	return reply{
		status: resp.StatusCode,
		body:   b,
		cache:  resp.Header.Get("X-Salsa-Cache"),
		flight: resp.Header.Get("X-Salsa-Flight"),
		shard:  resp.Header.Get("X-Salsa-Shard"),
	}, nil
}
