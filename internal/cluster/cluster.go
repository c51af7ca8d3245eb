// Package cluster turns a set of quartzd daemons into one logical
// experiment service: a coordinator that shards sweep-shaped
// experiments (internal/experiments.Sweep) into contiguous cell ranges,
// fans the ranges out to worker daemons over the ordinary quartzd HTTP
// JSON API, and merges the partial blocks back — deterministically, so
// the cluster's output is byte-identical to a single process running
// the same experiment, for every worker count.
//
// Topology. One daemon runs as the coordinator; every other daemon is
// a stock quartzd worker — workers need no cluster code at all, the
// coordinator drives them through POST /jobs with a cell range
// (service.Request.Cells) and follows GET /jobs/{id}/events, the SSE
// stream any client can watch, until it closes on a terminal state.
// The worker set is the list given to New (quartzd's -cluster-workers),
// fixed for the coordinator's lifetime; a worker restarted at a listed
// URL rejoins when its heartbeat answers again.
//
// Determinism. The registry Run of a sweep experiment is
// Sweep.RunCells(0, n) + Sweep.Merge — the exact pair the coordinator
// composes from worker blocks, so any partition of [0, n) merges to
// the same bytes. Blocks travel as JSON; float64s round-trip exactly,
// so a block that crossed the wire is indistinguishable from one
// computed locally.
//
// Failure model. A worker that fails transport, drains, times a
// sub-job out, cuts its event stream short or returns a block other
// than the one asked for is marked dead and only its unfinished ranges
// are requeued onto survivors; its heartbeat loop keeps re-dialing with
// backoff and revives it when /healthz answers again. A failed probe
// also cancels the worker's open streams: going silent costs one
// heartbeat, not a hang. An experiment error that is not a deadline is
// fatal for the whole job — a deterministic failure would fail
// identically everywhere, so retrying it elsewhere only burns cycles.
// When every worker is dead with ranges still pending, the job fails.
//
// Caching. The coordinator's own service caches merged output under
// the experiment's full cache key, so a repeated submission never
// reaches the cluster. Below that, each worker's LRU caches its
// blocks under experiments.CacheKeyRange sub-keys — a shared cache
// tier: any worker's prior block serves any later sweep that covers
// the same cells, including ranges requeued after a coordinator
// restart.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/quartz-dcn/quartz/internal/metrics"
)

// Config parameterizes a Coordinator. Zero values take the documented
// defaults.
type Config struct {
	// Workers are the worker base URLs ("http://host:port"), dialed at
	// startup and fixed for the coordinator's lifetime. A URL named
	// twice, or with a trailing "/", is one worker.
	Workers []string
	// HeartbeatInterval paces the per-worker health probe. Default 2s.
	HeartbeatInterval time.Duration
	// Registry receives the quartzd_cluster_* instruments; a private
	// registry is created when nil. Pass the service's registry so one
	// /metrics page shows both tiers.
	Registry *metrics.Registry
	// Client issues worker HTTP requests. Default: a dedicated client
	// (per-call deadlines come from requestTimeout; a Timeout of its
	// own would cut event streams short).
	Client *http.Client
}

const (
	// heartbeatBackoffMax caps the probe backoff while a worker is
	// dead (the re-dial loop doubles from HeartbeatInterval).
	heartbeatBackoffMax = 30 * time.Second
	// requestTimeout bounds each HTTP call to a worker except the
	// event stream, which lasts as long as its range.
	requestTimeout = 10 * time.Second
)

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// worker is one tracked daemon. alive flips false on a failed probe or
// a mid-sweep dispatch failure, true again when /healthz answers; the
// dispatcher only reads it at fan-out time, so a revived worker joins
// the next sweep, not the current one.
type worker struct {
	url string

	mu      sync.Mutex
	alive   bool
	depth   int // last observed queue depth (load-balancing signal)
	lastErr string
	live    context.Context // the worker's open event streams run under it
	down    context.CancelFunc

	mDepth *metrics.Gauge
}

func (w *worker) markAlive(depth int) {
	w.mu.Lock()
	revived := !w.alive
	w.alive = true
	w.depth = depth
	w.lastErr = ""
	w.mu.Unlock()
	w.mDepth.Set(float64(depth))
	if revived {
		slog.Info("cluster: worker revived", "worker", w.url)
	}
}

func (w *worker) markDead(err error) {
	w.mu.Lock()
	died := w.alive
	w.alive = false
	w.lastErr = err.Error()
	w.mu.Unlock()
	if died {
		slog.Warn("cluster: worker dead", "worker", w.url, "err", err)
	}
}

// hangUp cancels the event streams open on the worker. Only a failed
// heartbeat does: a fault one dispatcher saw (a drain, a bad block)
// says nothing about the worker's other ranges.
func (w *worker) hangUp() {
	w.mu.Lock()
	w.down()
	w.live, w.down = context.WithCancel(context.Background())
	w.mu.Unlock()
}

func (w *worker) isAlive() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.alive
}

// Coordinator owns the worker set and the sweep fan-out. Create one
// with New, wire it into a service via WrapLookup, mount Handler next
// to the service handler, and Close it on shutdown.
type Coordinator struct {
	cfg    Config
	client *http.Client
	reg    *metrics.Registry

	workers   []*worker  // URL order; fixed by New
	gaugeMu   sync.Mutex // orders the monitors' writes of mWorkersAlive
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	mWorkersAlive *metrics.Gauge
	mWorkersTotal *metrics.Gauge
	mDispatches   *metrics.Counter
	mRetries      *metrics.Counter
	mCells        *metrics.Counter
	mSweeps       map[string]*metrics.Counter
}

// New returns a started Coordinator over cfg.Workers: heartbeat
// monitors for the workers are live immediately. Stop it with Close.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Coordinator{
		cfg:    cfg,
		client: cfg.Client,
		reg:    reg,
		stop:   make(chan struct{}),

		mWorkersAlive: reg.Gauge("quartzd_cluster_workers_alive", "workers currently answering health probes", nil),
		mWorkersTotal: reg.Gauge("quartzd_cluster_workers_total", "workers known to the coordinator", nil),
		mDispatches:   reg.Counter("quartzd_cluster_dispatches_total", "cell ranges dispatched to workers", nil),
		mRetries:      reg.Counter("quartzd_cluster_retries_total", "cell ranges requeued after a worker failure", nil),
		mCells:        reg.Counter("quartzd_cluster_cells_total", "sweep cells executed by the cluster", nil),
		mSweeps: map[string]*metrics.Counter{
			"done":   reg.Counter("quartzd_cluster_sweeps_total", "cluster sweeps, by outcome", metrics.Labels{"outcome": "done"}),
			"failed": reg.Counter("quartzd_cluster_sweeps_total", "cluster sweeps, by outcome", metrics.Labels{"outcome": "failed"}),
		},
	}
	urls := make([]string, len(cfg.Workers))
	for i, u := range cfg.Workers {
		urls[i] = strings.TrimRight(u, "/")
	}
	slices.Sort(urls)
	for _, u := range slices.Compact(urls) {
		c.addWorker(u)
	}
	c.mWorkersTotal.Set(float64(len(c.workers)))
	c.updateAliveGauge()
	for _, w := range c.workers {
		c.wg.Add(1)
		go c.monitor(w)
	}
	return c
}

// addWorker appends the worker at url to the set New builds.
func (c *Coordinator) addWorker(url string) {
	live, down := context.WithCancel(context.Background())
	c.workers = append(c.workers, &worker{
		url: url, live: live, down: down,
		// Born alive: the first sweep may land before the first probe,
		// and a wrong guess only costs one requeue.
		alive:  true,
		mDepth: c.reg.Gauge("quartzd_cluster_worker_queue_depth", "last observed worker queue depth", metrics.Labels{"worker": url}),
	})
}

// alive lists the workers currently believed healthy, in URL order
// (deterministic fan-out shape for a given worker set).
func (c *Coordinator) alive() []*worker {
	var out []*worker
	for _, w := range c.workers {
		if w.isAlive() {
			out = append(out, w)
		}
	}
	return out
}

func (c *Coordinator) updateAliveGauge() {
	c.gaugeMu.Lock()
	defer c.gaugeMu.Unlock()
	c.mWorkersAlive.Set(float64(len(c.alive())))
}

// monitor is one worker's heartbeat loop: probe /healthz, record the
// queue depth (or hang up the worker's streams), and while the worker
// is dead keep re-dialing with exponential backoff so a restarted
// daemon rejoins on its own.
func (c *Coordinator) monitor(w *worker) {
	defer c.wg.Done()
	delay := c.cfg.HeartbeatInterval
	for {
		if hb, err := c.health(w.url); err != nil {
			w.markDead(err)
			w.hangUp()
			delay = min(delay*2, heartbeatBackoffMax)
		} else {
			w.markAlive(hb.QueueDepth)
			delay = c.cfg.HeartbeatInterval
		}
		c.updateAliveGauge()
		select {
		case <-c.stop:
			return
		case <-time.After(delay):
		}
	}
}

// WorkerView is one GET /cluster entry.
type WorkerView struct {
	URL        string `json:"url"`
	Alive      bool   `json:"alive"`
	QueueDepth int    `json:"queue_depth"`
	LastError  string `json:"last_error,omitempty"`
}

// WorkersSnapshot lists the workers in URL order.
func (c *Coordinator) WorkersSnapshot() []WorkerView {
	out := make([]WorkerView, 0, len(c.workers))
	for _, w := range c.workers {
		w.mu.Lock()
		out = append(out, WorkerView{URL: w.url, Alive: w.alive, QueueDepth: w.depth, LastError: w.lastErr})
		w.mu.Unlock()
	}
	return out
}

// Close stops the heartbeat monitors; a second Close is a no-op.
// In-flight sweeps are not interrupted — cancel their jobs through the
// owning service.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// ErrNoWorkers rejects a sweep when no worker is believed alive.
var ErrNoWorkers = fmt.Errorf("cluster: no alive workers")
