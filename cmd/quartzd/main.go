// Command quartzd serves Quartz experiments over HTTP: submit a job,
// poll its state, fetch the result. It fronts internal/service — a
// bounded submission queue with backpressure, a worker pool sized to
// the machine, and an LRU result cache keyed by the canonical
// parameter hash, so identical submissions never recompute.
//
// Usage:
//
//	quartzd [-addr :8714] [-queue N] [-workers N] [-cache N]
//	        [-timeout D] [-grace D] [-cluster-workers URLS]
//
// Cluster mode (internal/cluster). A daemon given -cluster-workers, a
// comma-separated list of worker base URLs (http(s)://host[:port]), is
// the coordinator: it shards sweep-shaped experiments across those
// workers and merges the partial results — byte-identical to a local
// run for every worker count — and serves one extra route:
//
//	GET  /cluster             the worker set: liveness, queue depth
//
// Workers are stock quartzd daemons. The list is fixed while the
// coordinator runs; a worker restarted at a listed URL rejoins when its
// heartbeat answers again.
//
// API (JSON):
//
//	POST   /jobs              {"experiment":"validate","params":{"seed":7,"trials":100}}
//	GET    /jobs              list jobs
//	GET    /jobs/{id}         job state + progress
//	GET    /jobs/{id}/events  state and progress as Server-Sent Events, until terminal
//	GET    /jobs/{id}/result  output once terminal (409 before)
//	GET    /jobs/{id}/trace   the job's execution trace (Chrome trace-event JSON)
//	DELETE /jobs/{id}         cancel
//	GET    /experiments       the experiment registry
//	GET    /metrics, /status  Prometheus text / JSON status
//	GET    /healthz           liveness
//
// POST /jobs also accepts a declarative scenario (SCENARIOS.md)
// instead of the envelope: a raw document (curl -d @file.json —
// recognized by its "schema": "quartz-scenario/v1" field) or an inline
// {"scenario": {...}}.
// Scenarios that parameterize a registry experiment share its cache
// key, so a scenario submission and an envelope submission of the same
// work coalesce into one cache entry.
//
// A full queue answers 429 Too Many Requests with Retry-After; that is
// the backpressure contract — the daemon never buffers unboundedly.
// SIGINT/SIGTERM drain gracefully: admission stops (503), in-flight
// jobs get -grace to finish, then their contexts are cancelled, and
// the daemon exits 0 with a lifetime-stats line.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/quartz-dcn/quartz/internal/cluster"
	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/metrics"
	"github.com/quartz-dcn/quartz/internal/service"
)

var (
	addr    = flag.String("addr", ":8714", "listen address")
	queue   = flag.Int("queue", 16, "submission queue capacity (full queue answers 429)")
	workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	cache   = flag.Int("cache", 256, "result cache entries (negative disables caching)")
	timeout = flag.Duration("timeout", 10*time.Minute, "default per-job run deadline")
	grace   = flag.Duration("grace", 30*time.Second, "drain grace period on shutdown before in-flight jobs are cancelled")

	clusterWkrs = flag.String("cluster-workers", "", "comma-separated worker base URLs; given, this daemon is the cluster coordinator (fans sweep experiments out to them, serves /cluster)")
)

func main() {
	// The daemon's own records and internal/cluster's go to stderr as
	// key=value text.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	flag.Parse()
	if err := run(); err != nil {
		slog.Error("quartzd: exiting", "err", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := metrics.NewRegistry()
	mode := "single"
	var coord *cluster.Coordinator
	var lookup func(string) (experiments.Experiment, bool)
	urls, err := workerURLs(*clusterWkrs)
	if err != nil {
		return err
	}
	if len(urls) > 0 {
		mode = "coordinator"
		coord = cluster.New(cluster.Config{Workers: urls, Registry: reg})
		defer coord.Close()
		lookup = coord.WrapLookup(nil)
		slog.Info("quartzd: coordinator mode", "cluster_workers", len(urls))
	}
	svc := service.New(service.Config{
		QueueCapacity:  *queue,
		Workers:        *workers,
		CacheEntries:   *cache,
		DefaultTimeout: *timeout,
		Registry:       reg,
		Lookup:         lookup,
	})
	handler := http.Handler(svc.Handler(metrics.StatusMeta{
		"daemon":  "quartzd",
		"go":      runtime.Version(),
		"mode":    mode,
		"queue":   fmt.Sprint(*queue),
		"workers": fmt.Sprint(svcWorkers()),
	}))
	if coord != nil {
		mux := http.NewServeMux()
		mux.Handle("/cluster", coord.Handler())
		mux.Handle("/", handler)
		handler = mux
	}

	// Bind before announcing readiness so callers (the CI smoke script
	// waits on this line) can poll the port immediately after.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	srv := metrics.NewServer(handler) // read-side timeouts; responses may stream
	slog.Info("quartzd: listening", "addr", ln.Addr().String(), "mode", mode,
		"queue", *queue, "workers", svcWorkers(), "cache", *cache, "timeout", *timeout)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop() // restore default handling: a second signal kills immediately
	slog.Info("quartzd: signal received; draining", "grace", *grace)

	// Drain first — stop admitting, let in-flight jobs finish or cancel
	// them at the grace deadline — then close the HTTP listener so
	// clients can poll job state for the whole drain window.
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	forced := svc.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}

	st := svc.Stats()
	slog.Info("quartzd: drained", "done", st.Done, "failed", st.Failed, "cancelled", st.Cancelled,
		"cache_hits", st.CacheHits, "cache_misses", st.CacheMisses, "cache_entries", st.CacheEntries)
	if forced != nil && errors.Is(forced, context.DeadlineExceeded) {
		slog.Warn("quartzd: grace period expired; in-flight jobs were cancelled", "grace", *grace)
	}
	return nil
}

// svcWorkers mirrors the service's worker-count default for the
// status page and the log.
func svcWorkers() int {
	if *workers > 0 {
		return *workers
	}
	return runtime.GOMAXPROCS(0)
}

// workerURLs parses -cluster-workers: comma-separated base URLs, each
// trimmed of spaces, empty entries dropped. A URL without an http or
// https scheme or without a host is refused, named in the error.
func workerURLs(list string) ([]string, error) {
	var urls []string
	for _, u := range strings.Split(list, ",") {
		if u = strings.TrimSpace(u); u == "" {
			continue
		}
		p, err := url.Parse(u)
		if err != nil || (p.Scheme != "http" && p.Scheme != "https") || p.Host == "" {
			return nil, fmt.Errorf("-cluster-workers: bad worker URL %q: want http(s)://host[:port]", u)
		}
		urls = append(urls, u)
	}
	return urls, nil
}
