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
// The worker set is static (-workers on the coordinator), dynamic
// (workers POST /cluster/register, see Registrar), or both.
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
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/quartz-dcn/quartz/internal/metrics"
)

// Config parameterizes a Coordinator. Zero values take the documented
// defaults.
type Config struct {
	// Workers are the static worker base URLs ("http://host:port"),
	// dialed at startup. More can join via POST /cluster/register.
	Workers []string
	// HeartbeatInterval paces the per-worker health probe. Default 2s.
	HeartbeatInterval time.Duration
	// HeartbeatBackoffMax caps the probe backoff while a worker is
	// dead (the re-dial loop doubles from HeartbeatInterval). Default
	// 30s.
	HeartbeatBackoffMax time.Duration
	// RequestTimeout bounds each HTTP call to a worker except the
	// event stream, which lasts as long as its range. Default 10s.
	RequestTimeout time.Duration
	// Registry receives the quartzd_cluster_* instruments; a private
	// registry is created when nil. Pass the service's registry so one
	// /metrics page shows both tiers.
	Registry *metrics.Registry
	// Client issues worker HTTP requests. Default: a dedicated client
	// (per-call deadlines come from RequestTimeout; a Timeout of its
	// own would cut event streams short).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.HeartbeatBackoffMax <= 0 {
		c.HeartbeatBackoffMax = 30 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
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

	mu      sync.Mutex
	workers map[string]*worker
	stop    chan struct{}
	stopped bool
	wg      sync.WaitGroup

	mWorkersAlive *metrics.Gauge
	mWorkersTotal *metrics.Gauge
	mDispatches   *metrics.Counter
	mRetries      *metrics.Counter
	mCells        *metrics.Counter
	mSweeps       map[string]*metrics.Counter
}

// New returns a started Coordinator: heartbeat monitors for the static
// workers are live immediately. Stop it with Close.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Coordinator{
		cfg:     cfg,
		client:  cfg.Client,
		reg:     reg,
		workers: make(map[string]*worker),
		stop:    make(chan struct{}),

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
	for _, u := range cfg.Workers {
		c.AddWorker(u)
	}
	return c
}

// AddWorker registers a worker daemon by base URL and starts its
// heartbeat monitor. Idempotent: re-registering a known URL (the
// Registrar loop does, as its own liveness signal) is a no-op.
func (c *Coordinator) AddWorker(url string) {
	url = strings.TrimRight(url, "/")
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	if _, ok := c.workers[url]; ok {
		return
	}
	live, down := context.WithCancel(context.Background())
	w := &worker{
		url: url, live: live, down: down,
		// Born alive: the first sweep may land before the first probe,
		// and a wrong guess only costs one requeue.
		alive:  true,
		mDepth: c.reg.Gauge("quartzd_cluster_worker_queue_depth", "last observed worker queue depth", metrics.Labels{"worker": url}),
	}
	c.workers[url] = w
	c.wg.Add(1)
	go c.monitor(w)
	c.updateWorkerGauges()
}

// alive snapshots the workers currently believed healthy, in URL order
// (deterministic fan-out shape for a given worker set).
func (c *Coordinator) alive() []*worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*worker
	for _, w := range c.workers {
		if w.isAlive() {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].url < out[j].url })
	return out
}

func (c *Coordinator) updateWorkerGauges() {
	// Callers hold c.mu.
	alive := 0
	for _, w := range c.workers {
		if w.isAlive() {
			alive++
		}
	}
	c.mWorkersAlive.Set(float64(alive))
	c.mWorkersTotal.Set(float64(len(c.workers)))
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
			delay = min(delay*2, c.cfg.HeartbeatBackoffMax)
		} else {
			w.markAlive(hb.QueueDepth)
			delay = c.cfg.HeartbeatInterval
		}
		c.mu.Lock()
		c.updateWorkerGauges()
		c.mu.Unlock()
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

// WorkersSnapshot lists the known workers in URL order.
func (c *Coordinator) WorkersSnapshot() []WorkerView {
	c.mu.Lock()
	urls := make([]string, 0, len(c.workers))
	for u := range c.workers {
		urls = append(urls, u)
	}
	workers := make([]*worker, 0, len(urls))
	sort.Strings(urls)
	for _, u := range urls {
		workers = append(workers, c.workers[u])
	}
	c.mu.Unlock()
	out := make([]WorkerView, 0, len(workers))
	for _, w := range workers {
		w.mu.Lock()
		out = append(out, WorkerView{URL: w.url, Alive: w.alive, QueueDepth: w.depth, LastError: w.lastErr})
		w.mu.Unlock()
	}
	return out
}

// Close stops the heartbeat monitors. In-flight sweeps are not
// interrupted — cancel their jobs through the owning service.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if !c.stopped {
		c.stopped = true
		close(c.stop)
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// ErrNoWorkers rejects a sweep when no worker is believed alive.
var ErrNoWorkers = fmt.Errorf("cluster: no alive workers")
