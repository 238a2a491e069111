// Command salsad is the long-running allocation service: an HTTP/JSON
// daemon serving CDFG allocation requests from a deterministic pipeline
// with content-addressed result caching, singleflight deduplication,
// admission control, per-request deadlines (anytime partial results),
// live metrics, and graceful drain on SIGTERM.
//
// Endpoints:
//
//	POST /allocate   synchronous allocation (AllocateRequest JSON)
//	POST /jobs       asynchronous submission; answers 202 + job ID
//	GET  /jobs/{id}  job state, engine progress, result
//	GET  /metrics    Prometheus text format counters + histogram
//	GET  /healthz    liveness
//	GET  /readyz     readiness (503 while draining)
//	GET  /debug/vars expvar
//
// Usage:
//
//	salsad -addr :8080 -max-concurrent 4 -max-queue 64 -cache 256
//
// With -journal <dir>, async jobs are durable: every acceptance and
// terminal result is fsynced to a write-ahead log in <dir> before it
// is acknowledged, and a restart with the same directory replays it —
// finished jobs keep serving their exact bytes, in-flight jobs re-run
// (see internal/journal):
//
//	salsad -addr :8081 -journal /var/lib/salsad/journal
//
// With -route, the same binary boots as a stateless cluster router
// instead: it serves the identical API surface, but proxies every
// request to one of the listed backends by rendezvous hashing of the
// graph fingerprint (see internal/cluster):
//
//	salsad -route http://127.0.0.1:8081,http://127.0.0.1:8082
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"salsa/internal/cluster"
	"salsa/internal/journal"
	"salsa/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("salsad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		cacheEntries  = fs.Int("cache", 256, "result cache capacity in entries (negative disables)")
		maxConcurrent = fs.Int("max-concurrent", 2, "maximum simultaneous engine runs")
		maxQueue      = fs.Int("max-queue", 64, "maximum requests waiting for an engine slot before 429")
		defTimeout    = fs.Duration("default-timeout", 30*time.Second, "search deadline for requests without timeout_ms")
		maxTimeout    = fs.Duration("max-timeout", 2*time.Minute, "upper clamp on request deadlines")
		workers       = fs.Int("engine-workers", 0, "engine workers per run (0 = GOMAXPROCS divided among the runs holding an engine slot)")
		journalDir    = fs.String("journal", "", "write-ahead journal directory for durable async jobs (empty disables; replayed on boot)")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight work on SIGTERM")
		route         = fs.String("route", "", "comma-separated backend base URLs; boots as a cluster router instead of a backend")
		probeInterval = fs.Duration("probe-interval", 500*time.Millisecond, "router: backend /readyz probe interval")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Both personalities expose the same lifecycle: an http.Handler plus
	// StartDrain (flip readiness off) and Drain (wait for in-flight work).
	var handler http.Handler
	var startDrain func()
	var drain func(context.Context) error
	role := "listening"
	if *route != "" {
		router, err := cluster.New(cluster.Config{
			Backends:      strings.Split(*route, ","),
			ProbeInterval: *probeInterval,
			CacheEntries:  *cacheEntries,
		})
		if err != nil {
			fmt.Fprintf(stderr, "salsad: %v\n", err)
			return 2
		}
		router.Start(ctx)
		handler, startDrain, drain = router.Handler(), router.StartDrain, router.Drain
		role = fmt.Sprintf("routing %d backends on", len(router.Healthy()))
	} else {
		cfg := service.Config{
			CacheEntries:   *cacheEntries,
			MaxConcurrent:  *maxConcurrent,
			MaxQueue:       *maxQueue,
			DefaultTimeout: *defTimeout,
			MaxTimeout:     *maxTimeout,
			EngineWorkers:  *workers,
		}
		if *journalDir != "" {
			jrn, err := journal.Open(*journalDir)
			if err != nil {
				fmt.Fprintf(stderr, "salsad: %v\n", err)
				return 2
			}
			defer jrn.Close()
			cfg.Journal = jrn
		}
		svc := service.New(cfg)
		if *journalDir != "" {
			if n := svc.MetricsSnapshot()["jobs_recovered_total"]; n > 0 {
				fmt.Fprintf(stdout, "salsad: journal %s replayed, %d jobs recovered\n", *journalDir, n)
			}
		}
		handler, startDrain, drain = svc.Handler(), svc.StartDrain, svc.Drain
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(stdout, "salsad: %s %s\n", role, *addr)

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "salsad: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(stdout, "salsad: signal received, draining")

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Flip readiness off first so a load balancer still probing /readyz
	// stops routing here, then stop the listener and wait for in-flight
	// HTTP exchanges (Shutdown) and async jobs (Drain).
	startDrain()
	code := 0
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "salsad: shutdown: %v\n", err)
		code = 1
	}
	if err := drain(dctx); err != nil {
		fmt.Fprintf(stderr, "salsad: %v\n", err)
		code = 1
	}
	fmt.Fprintln(stdout, "salsad: drained, exiting")
	return code
}
