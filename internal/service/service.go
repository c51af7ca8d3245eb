// Package service runs Quartz experiments on behalf of concurrent
// clients: a bounded submission queue with backpressure, a worker pool
// executing registry experiments (internal/experiments) under per-job
// deadlines and cancellation, a result cache keyed by the canonical
// parameter hash, and queryable job lifecycle state. cmd/quartzd
// fronts a Service with an HTTP JSON API (see http.go); tests drive it
// directly.
//
// Concurrency model: Submit, Cancel, and the workers serialize every
// lifecycle transition under the service mutex (taken before the job
// mutex, never after), so the queued/running gauges can never drift
// from the states jobs are actually in. Experiment execution itself —
// the expensive part — runs outside any lock.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/metrics"
	"github.com/quartz-dcn/quartz/internal/scenario"
	"github.com/quartz-dcn/quartz/internal/trace"
)

// jobFlightSpans bounds each job's trace recorder. The ring grows
// lazily, so short jobs pay only for the spans they record; a
// long-running job keeps its most recent spans.
const jobFlightSpans = 2048

// Submission errors. The HTTP layer maps these to status codes
// (ErrQueueFull → 429, ErrDraining → 503, ErrUnknownExperiment → 404).
var (
	ErrQueueFull         = errors.New("submission queue full")
	ErrDraining          = errors.New("draining, not accepting jobs")
	ErrUnknownExperiment = errors.New("unknown experiment")
	ErrUnknownJob        = errors.New("unknown job")
	// ErrBadRange rejects a cell-range submission whose experiment has
	// no sweep grid or whose bounds fall outside it (HTTP 400).
	ErrBadRange = errors.New("bad cell range")
	// ErrBadTimeout rejects a timeout_secs that is positive but not a
	// representable duration: below 1 ns or past time.Duration's range
	// (HTTP 400).
	ErrBadTimeout = errors.New("bad timeout_secs")
	// ErrBadScenario rejects a scenario document that does not decode or
	// compile, and a request whose selectors conflict (HTTP 400).
	ErrBadScenario = errors.New("bad scenario")
)

// Config parameterizes a Service. Zero values take the documented
// defaults.
type Config struct {
	// QueueCapacity bounds the submission queue; a full queue rejects
	// with ErrQueueFull (backpressure, not buffering). Default 16.
	QueueCapacity int
	// Workers is the worker-pool size. Default runtime.GOMAXPROCS(0).
	Workers int
	// CacheEntries caps the result cache (LRU). Default 256; negative
	// disables caching.
	CacheEntries int
	// DefaultTimeout caps a job's run time when the request does not
	// set one. Default 10 minutes.
	DefaultTimeout time.Duration
	// Registry receives the service's instruments; a private registry
	// is created when nil.
	Registry *metrics.Registry
	// Lookup resolves experiment names. Default experiments.Find.
	Lookup func(name string) (experiments.Experiment, bool)
}

func (c Config) withDefaults() Config {
	if c.QueueCapacity == 0 {
		c.QueueCapacity = 16
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Minute
	}
	if c.Lookup == nil {
		c.Lookup = experiments.Find
	}
	return c
}

// Service is the job subsystem. Create one with New; it is safe for
// concurrent use.
type Service struct {
	cfg        Config
	reg        *metrics.Registry
	queue      chan *Job
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup // one count per pool worker
	drained    chan struct{}  // closed once every worker has exited

	// mu serializes lifecycle transitions and is always taken before a
	// job's own mutex, never after.
	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string        // job IDs in submission order
	inflight map[string]*Job // cache key → live (queued/running) job, for coalescing
	nQueued  int
	nRunning int
	draining bool
	nextID   uint64

	cache *resultCache

	mQueueDepth *metrics.Gauge
	mQueueCap   *metrics.Gauge
	mQueued     *metrics.Gauge
	mRunning    *metrics.Gauge
	mQueueWait  *metrics.LatencyHistogram
	mRunLatency *metrics.LatencyHistogram
	mTerminal   map[State]*metrics.Counter
	mSubmit     map[string]*metrics.Counter
	mCacheHits  *metrics.Counter
	mCacheMiss  *metrics.Counter
	mCacheSize  *metrics.Gauge
}

// New returns a started Service: its worker pool is live and Submit
// may be called immediately. Stop it with Drain.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		reg:        reg,
		queue:      make(chan *Job, cfg.QueueCapacity),
		baseCtx:    ctx,
		baseCancel: cancel,
		drained:    make(chan struct{}),
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		cache:      newResultCache(cfg.CacheEntries),

		mQueueDepth: reg.Gauge("quartzd_queue_depth", "jobs waiting in the submission queue", nil),
		mQueueCap:   reg.Gauge("quartzd_queue_capacity", "submission queue capacity", nil),
		mQueued:     reg.Gauge("quartzd_jobs_queued", "jobs currently queued", nil),
		mRunning:    reg.Gauge("quartzd_jobs_running", "jobs currently executing", nil),
		mQueueWait:  reg.Histogram("quartzd_queue_wait_us", "time from submission to execution start, microseconds", nil),
		mRunLatency: reg.Histogram("quartzd_job_run_us", "job execution time, microseconds", nil),
		mTerminal: map[State]*metrics.Counter{
			StateDone:      reg.Counter("quartzd_jobs_total", "jobs finished, by terminal state", metrics.Labels{"state": "done"}),
			StateFailed:    reg.Counter("quartzd_jobs_total", "jobs finished, by terminal state", metrics.Labels{"state": "failed"}),
			StateCancelled: reg.Counter("quartzd_jobs_total", "jobs finished, by terminal state", metrics.Labels{"state": "cancelled"}),
		},
		mSubmit: map[string]*metrics.Counter{
			"coalesced":         reg.Counter("quartzd_submissions_total", "submissions, by outcome", metrics.Labels{"outcome": "coalesced"}),
			"rejected_full":     reg.Counter("quartzd_submissions_total", "submissions, by outcome", metrics.Labels{"outcome": "rejected_full"}),
			"rejected_draining": reg.Counter("quartzd_submissions_total", "submissions, by outcome", metrics.Labels{"outcome": "rejected_draining"}),
		},
		mCacheHits: reg.Counter("quartzd_cache_hits_total", "submissions served from the result cache", nil),
		mCacheMiss: reg.Counter("quartzd_cache_misses_total", "submissions that required execution", nil),
		mCacheSize: reg.Gauge("quartzd_cache_entries", "results held in the cache", nil),
	}
	s.mQueueCap.Set(float64(cfg.QueueCapacity))
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// QueueCapacity returns the configured submission-queue bound.
func (s *Service) QueueCapacity() int { return s.cfg.QueueCapacity }

// QueueDepth returns the number of jobs waiting in the submission
// queue right now — the load signal /healthz exposes so clients and
// the cluster coordinator can balance on backpressure instead of
// blindly retrying 429s.
func (s *Service) QueueDepth() int { return len(s.queue) }

// Experiments returns the registry entries this service can run.
func (s *Service) Experiments() []experiments.Experiment { return experiments.All() }

// resolve turns a request into the experiment to run and its
// parameters, from whichever of Experiment and Scenario is set.
// Scenario compilation preserves cache identity: a scenario that
// parameterizes a registry entry resolves to the registry entry
// itself, so it coalesces with direct submissions of that experiment.
func (s *Service) resolve(req Request) (experiments.Experiment, experiments.Params, error) {
	switch {
	case req.Experiment != "" && len(req.Scenario) > 0:
		return experiments.Experiment{}, experiments.Params{},
			fmt.Errorf("%w: pick one of experiment, scenario", ErrBadScenario)
	case len(req.Scenario) > 0:
		if req.Params != (ParamSpec{}) {
			return experiments.Experiment{}, experiments.Params{},
				fmt.Errorf("%w: a scenario pins its parameters in the document; drop the params field", ErrBadScenario)
		}
		compiled, err := compileScenario(req.Scenario)
		if err != nil {
			return experiments.Experiment{}, experiments.Params{}, err
		}
		return compiled.Experiment, compiled.Params, nil
	}
	exp, ok := s.cfg.Lookup(req.Experiment)
	if !ok {
		return experiments.Experiment{}, experiments.Params{},
			fmt.Errorf("%w: %q", ErrUnknownExperiment, req.Experiment)
	}
	return exp, req.Params.Params().WithDefaults(), nil
}

// compileScenario decodes and compiles a submitted document, raw or
// inline, wrapping its problems in ErrBadScenario: a bad scenario is
// rejected with its field-precise errors at submission, never at run
// time.
func compileScenario(raw []byte) (*scenario.Compiled, error) {
	f, err := scenario.Decode(raw, "scenario")
	if err != nil {
		return nil, fmt.Errorf("%w:\n%v", ErrBadScenario, err)
	}
	c, err := scenario.Compile(f)
	if err != nil {
		return nil, fmt.Errorf("%w:\n%v", ErrBadScenario, err)
	}
	return c, nil
}

// Submit admits one job. On success the returned job is queued (or
// already terminal, for cache hits) and owned by the service. Repeated
// submission of identical parameters is served without recomputation:
// from the cache when a result exists, or by returning the in-flight
// job computing it. Errors: ErrUnknownExperiment, ErrBadScenario,
// ErrBadTimeout, ErrBadRange, ErrDraining, ErrQueueFull.
func (s *Service) Submit(req Request) (*Job, error) {
	exp, params, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	key := experiments.CacheKey(exp.Name, params)
	run := exp.Run
	if req.Cells != nil {
		// Cell-range sub-job: run only [Lo, Hi) of the experiment's
		// sweep grid and report the partial block. The cache key becomes
		// the range sub-key, so a block this worker computed once serves
		// every later request for the same cells — the shared-cache tier
		// the cluster coordinator leans on.
		if req.Experiment == "" {
			return nil, fmt.Errorf("%w: cells requires a registry experiment", ErrBadRange)
		}
		sw := exp.Sweep
		if sw == nil {
			return nil, fmt.Errorf("%w: experiment %q has no sweep grid", ErrBadRange, exp.Name)
		}
		lo, hi := req.Cells.Lo, req.Cells.Hi
		if err := experiments.CheckRange(sw.Cells(params), lo, hi); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRange, err)
		}
		key = experiments.CacheKeyRange(exp.Name, params, lo, hi)
		run = func(ctx context.Context, p experiments.Params) (experiments.Output, error) {
			return sw.RunRange(ctx, p, lo, hi)
		}
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutSecs > 0 {
		// A float past int64's range does not fail to convert: on amd64
		// it wraps to a negative duration that ends the job at once.
		ns := req.TimeoutSecs * float64(time.Second)
		if ns < 1 || ns >= math.MaxInt64 {
			return nil, fmt.Errorf("%w: %g s is not a duration from 1ns to %v",
				ErrBadTimeout, req.TimeoutSecs, time.Duration(math.MaxInt64))
		}
		timeout = time.Duration(ns)
	}
	now := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.mSubmit["rejected_draining"].Inc()
		return nil, ErrDraining
	}
	if !req.NoCache {
		if ent, ok := s.cache.get(key); ok {
			s.mCacheHits.Inc()
			job := s.newJobLocked(exp, params, run, key, timeout, req, now)
			job.cacheHit = true
			job.startedAt = now
			job.traceSpan("cached", now, now)
			job.finish(StateDone, ent.output, "", now)
			s.mTerminal[StateDone].Inc()
			s.registerLocked(job)
			return job, nil
		}
		if live, ok := s.inflight[key]; ok {
			s.mSubmit["coalesced"].Inc()
			return live, nil
		}
	}
	job := s.newJobLocked(exp, params, run, key, timeout, req, now)
	select {
	case s.queue <- job:
	default:
		s.mSubmit["rejected_full"].Inc()
		return nil, fmt.Errorf("%w (capacity %d)", ErrQueueFull, s.cfg.QueueCapacity)
	}
	s.mCacheMiss.Inc()
	s.registerLocked(job)
	if !req.NoCache {
		s.inflight[key] = job
	}
	s.nQueued++
	s.gaugesLocked()
	return job, nil
}

// newJobLocked allocates a job shell. Caller holds s.mu.
func (s *Service) newJobLocked(exp experiments.Experiment, p experiments.Params, run func(context.Context, experiments.Params) (experiments.Output, error), key string, timeout time.Duration, req Request, now time.Time) *Job {
	s.nextID++
	j := &Job{
		id:          fmt.Sprintf("j-%06d", s.nextID),
		key:         key,
		name:        exp.Name,
		params:      p,
		run:         run,
		cells:       req.Cells,
		timeout:     timeout,
		noCache:     req.NoCache,
		traceID:     req.TraceID,
		rec:         trace.NewFlightRecorder(jobFlightSpans),
		state:       StateQueued,
		submittedAt: now,
		done:        make(chan struct{}),
	}
	if j.traceID == "" {
		j.traceID = j.id
	}
	j.rec.NameTrack("job", 0, "lifecycle")
	return j
}

// maxJobs bounds the in-memory job table: when exceeded, the oldest
// terminal jobs are forgotten (their results stay in the cache until
// evicted).
const maxJobs = 1000

// registerLocked records a job in the table, evicting the oldest
// terminal jobs beyond maxJobs. Caller holds s.mu.
func (s *Service) registerLocked(j *Job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for len(s.order) > maxJobs {
		evicted := false
		for i, id := range s.order {
			if old := s.jobs[id]; old != nil && old.State().Terminal() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything live; let the table run long
		}
	}
}

// gaugesLocked refreshes the queue/state gauges. Caller holds s.mu.
func (s *Service) gaugesLocked() {
	s.mQueueDepth.Set(float64(len(s.queue)))
	s.mQueued.Set(float64(s.nQueued))
	s.mRunning.Set(float64(s.nRunning))
	s.mCacheSize.Set(float64(s.cache.len()))
}

// Job returns the job with the given ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every tracked job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel stops a job: a queued job goes terminal immediately, a
// running job has its context cancelled (the transition lands when the
// experiment observes it). Cancelling a terminal job is a no-op.
func (s *Service) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	j.mu.Lock()
	state := j.state
	cancel := j.cancel
	j.mu.Unlock()
	switch state {
	case StateQueued:
		j.finish(StateCancelled, experiments.Output{}, "cancelled while queued", time.Now())
		s.mTerminal[StateCancelled].Inc()
		delete(s.inflight, j.key)
		s.nQueued--
		s.gaugesLocked()
	case StateRunning:
		if cancel != nil {
			cancel()
		}
	}
	return j, nil
}

// worker is one pool member: it drains the submission queue until the
// queue is closed by Drain.
func (s *Service) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runRecovered calls run and turns a panic into its error, so a job
// whose experiment panics outside a cell fails alone instead of ending
// the daemon with every job in its queue.
func runRecovered(ctx context.Context, run func(context.Context, experiments.Params) (experiments.Output, error), p experiments.Params) (out experiments.Output, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return run(ctx, p)
}

// runJob executes one dequeued job end to end.
func (s *Service) runJob(j *Job) {
	now := time.Now()
	ctx, cancel := context.WithTimeout(s.baseCtx, j.timeout)
	defer cancel()

	s.mu.Lock()
	j.mu.Lock()
	if j.state.Terminal() { // cancelled while queued; already accounted
		j.mu.Unlock()
		s.gaugesLocked()
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.startedAt = now
	j.cancel = cancel
	j.notifyLocked()
	j.mu.Unlock()
	s.nQueued--
	s.nRunning++
	s.gaugesLocked()
	s.mu.Unlock()
	s.mQueueWait.Observe(float64(now.Sub(j.submittedAt).Microseconds()))
	j.traceSpan("queued", j.submittedAt, now)

	p := j.params
	p.Progress = j.setProgress
	p.Trace = j.rec
	out, err := runRecovered(ctx, j.run, p)

	state := StateDone
	msg := ""
	switch {
	case err == nil:
		state = StateDone
	case errors.Is(err, context.Canceled):
		state = StateCancelled
		msg = "cancelled while running"
	case errors.Is(err, context.DeadlineExceeded):
		state = StateFailed
		msg = fmt.Sprintf("deadline exceeded after %v", j.timeout)
	default:
		state = StateFailed
		msg = err.Error()
	}
	end := time.Now()
	j.traceSpan("run", now, end)

	s.mu.Lock()
	recorded := j.finish(state, out, msg, end)
	s.mTerminal[recorded].Inc()
	if recorded == StateDone && !j.noCache {
		s.cache.put(j.key, out, j.id)
	}
	delete(s.inflight, j.key)
	s.nRunning--
	s.gaugesLocked()
	s.mu.Unlock()
	s.mRunLatency.Observe(float64(end.Sub(now).Microseconds()))
}

// Drain shuts the service down gracefully: stop admitting (further
// Submits fail with ErrDraining), let queued and running jobs finish,
// then return. If ctx expires first, in-flight job contexts are
// cancelled and Drain waits for the workers to observe that before
// returning ctx.Err(). Safe to call more than once.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
		go func() {
			s.wg.Wait()
			close(s.drained)
		}()
	}
	s.mu.Unlock()

	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		// Grace period over: cancel every in-flight job context and
		// wait for the pool to observe it and unwind.
		s.baseCancel()
		<-s.drained
		return ctx.Err()
	}
}

// Stats summarizes lifetime activity, for the daemon's exit log.
type Stats struct {
	Done, Failed, Cancelled uint64
	CacheHits, CacheMisses  uint64
	CacheEntries            int
}

// Stats returns lifetime counters.
func (s *Service) Stats() Stats {
	return Stats{
		Done:         s.mTerminal[StateDone].Value(),
		Failed:       s.mTerminal[StateFailed].Value(),
		Cancelled:    s.mTerminal[StateCancelled].Value(),
		CacheHits:    s.mCacheHits.Value(),
		CacheMisses:  s.mCacheMiss.Value(),
		CacheEntries: s.cache.len(),
	}
}
