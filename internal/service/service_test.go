package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/metrics"
	"github.com/quartz-dcn/quartz/internal/trace"
)

// stubRegistry builds a Lookup over synthetic experiments for tests:
// "echo" returns immediately, "block" parks until release is closed
// (or its context is cancelled), "fail" errors, "ticker" reports
// progress. runs counts real executions of each experiment.
type stubRegistry struct {
	runs    atomic.Int64
	release chan struct{}
	started chan string // receives the experiment name as a run begins
}

func newStubRegistry() *stubRegistry {
	return &stubRegistry{release: make(chan struct{}), started: make(chan string, 64)}
}

func (sr *stubRegistry) lookup(name string) (experiments.Experiment, bool) {
	run := func(fn func(ctx context.Context, p experiments.Params) (experiments.Output, error)) func(context.Context, experiments.Params) (experiments.Output, error) {
		return func(ctx context.Context, p experiments.Params) (experiments.Output, error) {
			sr.runs.Add(1)
			select {
			case sr.started <- name:
			default:
			}
			return fn(ctx, p)
		}
	}
	switch name {
	case "echo":
		return experiments.Experiment{Name: "echo", Run: run(func(_ context.Context, p experiments.Params) (experiments.Output, error) {
			return experiments.Output{Text: fmt.Sprintf("seed=%d", p.Seed)}, nil
		})}, true
	case "block":
		return experiments.Experiment{Name: "block", Run: run(func(ctx context.Context, _ experiments.Params) (experiments.Output, error) {
			select {
			case <-sr.release:
				return experiments.Output{Text: "released"}, nil
			case <-ctx.Done():
				return experiments.Output{}, ctx.Err()
			}
		})}, true
	case "fail":
		return experiments.Experiment{Name: "fail", Run: run(func(context.Context, experiments.Params) (experiments.Output, error) {
			return experiments.Output{}, errors.New("synthetic failure")
		})}, true
	case "spanner":
		return experiments.Experiment{Name: "spanner", Run: run(func(_ context.Context, p experiments.Params) (experiments.Output, error) {
			p.Trace.Add(trace.Span{Name: "cell", Cat: "experiment", Track: 0})
			return experiments.Output{Text: "spanned"}, nil
		})}, true
	case "ticker":
		return experiments.Experiment{Name: "ticker", Run: run(func(_ context.Context, p experiments.Params) (experiments.Output, error) {
			for i := 1; i <= 4; i++ {
				if p.Progress != nil {
					p.Progress(i, 4)
				}
			}
			return experiments.Output{Text: "ticked"}, nil
		})}, true
	case "panic":
		return experiments.Experiment{Name: "panic", Run: run(func(context.Context, experiments.Params) (experiments.Output, error) {
			panic("merge exploded")
		})}, true
	case "panicky":
		// A six-cell grid on the real cell pool whose cell 3 panics.
		g := experiments.Grid[int, int, []int]{
			Name:  "panicky",
			Cells: func(experiments.Params) []int { return []int{0, 1, 2, 3, 4, 5} },
			Run: func(_ experiments.Params, c int, _ experiments.Shared) (int, error) {
				if c == 3 {
					panic("cell three exploded")
				}
				return c, nil
			},
			Merge:  func(_ experiments.Params, _ []int, vals []int) ([]int, error) { return vals, nil },
			Render: func(rows []int) experiments.Output { return experiments.Output{Text: fmt.Sprint(rows)} },
		}
		sw := g.Sweep()
		return experiments.Experiment{Name: "panicky", Run: run(sw.Run), Sweep: sw}, true
	case "grid":
		// A synthetic 8-cell sweep: cell i's value is seed*100+i, the
		// merge renders them space-separated. Counts executions like the
		// other stubs so cache tests can assert "no recompute".
		sw := &experiments.Sweep{
			Cells: func(experiments.Params) int { return 8 },
			RunCells: func(_ context.Context, p experiments.Params, lo, hi int) (experiments.CellBlock, error) {
				sr.runs.Add(1)
				vals := make([]int64, hi-lo)
				for k := range vals {
					vals[k] = p.Seed*100 + int64(lo+k)
					if p.Progress != nil {
						p.Progress(k+1, hi-lo)
					}
				}
				data, err := json.Marshal(vals)
				if err != nil {
					return experiments.CellBlock{}, err
				}
				return experiments.CellBlock{Lo: lo, Hi: hi, Data: data}, nil
			},
			Merge: func(_ experiments.Params, blocks []experiments.CellBlock) (experiments.Output, error) {
				var all []int64
				for _, b := range blocks {
					var part []int64
					if err := json.Unmarshal(b.Data, &part); err != nil {
						return experiments.Output{}, err
					}
					all = append(all, part...)
				}
				return experiments.Output{Text: fmt.Sprintf("grid=%v", all)}, nil
			},
		}
		return experiments.Experiment{Name: "grid", Run: sw.Run, Sweep: sw}, true
	}
	return experiments.Experiment{}, false
}

func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s did not reach a terminal state: %v", j.ID(), err)
	}
}

// counterValue reads one counter series out of a snapshot.
func counterValue(t *testing.T, reg *metrics.Registry, name string, labels metrics.Labels) float64 {
	t.Helper()
	for _, s := range reg.Snapshot().Series {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value
		}
	}
	t.Fatalf("no series %s %v in snapshot", name, labels)
	return 0
}

func TestSubmitRunsToCompletion(t *testing.T) {
	sr := newStubRegistry()
	s := New(Config{QueueCapacity: 4, Workers: 2, Lookup: sr.lookup})
	defer s.Drain(context.Background())

	job, err := s.Submit(Request{Experiment: "echo", Params: ParamSpec{Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	if st := job.State(); st != StateDone {
		t.Fatalf("state = %v, want done", st)
	}
	out, errMsg := job.Output()
	if out.Text != "seed=42" || errMsg != "" {
		t.Fatalf("output = %q / %q", out.Text, errMsg)
	}
	v := job.Snapshot(time.Now())
	if v.Params.Seed != 42 || v.Params.Trials != experiments.DefaultParams().Trials {
		t.Errorf("params not canonicalized in view: %+v", v.Params)
	}
}

func TestQueueBackpressure(t *testing.T) {
	// One worker occupied by a blocking job, a queue of capacity N
	// filled with N more: submission N+2 must be rejected with
	// ErrQueueFull, and the rejection counter must say so.
	const capN = 3
	sr := newStubRegistry()
	s := New(Config{QueueCapacity: capN, Workers: 1, Lookup: sr.lookup})
	defer func() {
		close(sr.release)
		s.Drain(context.Background())
	}()

	first, err := s.Submit(Request{Experiment: "block", Params: ParamSpec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker has dequeued it, so the queue is empty.
	select {
	case <-sr.started:
	case <-time.After(10 * time.Second):
		t.Fatal("blocking job never started")
	}
	for i := 0; i < capN; i++ {
		if _, err := s.Submit(Request{Experiment: "block", Params: ParamSpec{Seed: int64(100 + i)}}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	_, err = s.Submit(Request{Experiment: "block", Params: ParamSpec{Seed: 999}})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submission: err = %v, want ErrQueueFull", err)
	}
	if got := counterValue(t, s.Registry(), "quartzd_submissions_total", metrics.Labels{"outcome": "rejected_full"}); got != 1 {
		t.Errorf("rejected_full = %v, want 1", got)
	}
	_ = first
}

func TestResultCacheHit(t *testing.T) {
	sr := newStubRegistry()
	s := New(Config{QueueCapacity: 4, Workers: 1, Lookup: sr.lookup})
	defer s.Drain(context.Background())

	req := Request{Experiment: "echo", Params: ParamSpec{Seed: 7}}
	first, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, first)
	if sr.runs.Load() != 1 {
		t.Fatalf("runs = %d, want 1", sr.runs.Load())
	}

	second, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID() == first.ID() {
		t.Fatalf("cache hit reused the job object; want a fresh job record")
	}
	if st := second.State(); st != StateDone {
		t.Fatalf("cached job state = %v, want done immediately", st)
	}
	if !second.CacheHit() {
		t.Error("cached job not marked as a cache hit")
	}
	out, _ := second.Output()
	if out.Text != "seed=7" {
		t.Errorf("cached output = %q", out.Text)
	}
	if sr.runs.Load() != 1 {
		t.Errorf("cache hit re-executed the experiment: runs = %d", sr.runs.Load())
	}
	if got := counterValue(t, s.Registry(), "quartzd_cache_hits_total", nil); got != 1 {
		t.Errorf("cache hits = %v, want 1", got)
	}

	// Different parameters miss.
	third, err := s.Submit(Request{Experiment: "echo", Params: ParamSpec{Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, third)
	if sr.runs.Load() != 2 {
		t.Errorf("distinct params did not execute: runs = %d", sr.runs.Load())
	}

	// NoCache forces execution even with a cached result present.
	req.NoCache = true
	fourth, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, fourth)
	if fourth.CacheHit() || sr.runs.Load() != 3 {
		t.Errorf("NoCache submission served from cache (runs = %d)", sr.runs.Load())
	}
}

func TestCoalesceInFlight(t *testing.T) {
	sr := newStubRegistry()
	s := New(Config{QueueCapacity: 4, Workers: 1, Lookup: sr.lookup})
	defer s.Drain(context.Background())

	req := Request{Experiment: "block", Params: ParamSpec{Seed: 5}}
	first, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("identical in-flight submission was not coalesced")
	}
	close(sr.release)
	waitTerminal(t, first)
	if sr.runs.Load() != 1 {
		t.Errorf("coalesced submission executed twice: runs = %d", sr.runs.Load())
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	sr := newStubRegistry()
	s := New(Config{QueueCapacity: 4, Workers: 1, Lookup: sr.lookup})
	defer func() {
		close(sr.release)
		s.Drain(context.Background())
	}()

	running, err := s.Submit(Request{Experiment: "block", Params: ParamSpec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sr.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	queued, err := s.Submit(Request{Experiment: "block", Params: ParamSpec{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job: immediate terminal state, never runs.
	if _, err := s.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateCancelled {
		t.Fatalf("queued job state after cancel = %v", st)
	}

	// Cancel the running job: context cancellation propagates.
	if _, err := s.Cancel(running.ID()); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, running)
	if st := running.State(); st != StateCancelled {
		t.Fatalf("running job state after cancel = %v", st)
	}
	if sr.runs.Load() != 1 {
		t.Errorf("cancelled-while-queued job ran anyway: runs = %d", sr.runs.Load())
	}
	if _, err := s.Cancel("j-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("cancel unknown job: err = %v", err)
	}
}

func TestJobDeadline(t *testing.T) {
	sr := newStubRegistry()
	s := New(Config{QueueCapacity: 4, Workers: 1, Lookup: sr.lookup})
	defer func() {
		close(sr.release)
		s.Drain(context.Background())
	}()

	job, err := s.Submit(Request{Experiment: "block", Params: ParamSpec{Seed: 1}, TimeoutSecs: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	if st := job.State(); st != StateFailed {
		t.Fatalf("state = %v, want failed on deadline", st)
	}
	if _, msg := job.Output(); !strings.Contains(msg, "deadline") {
		t.Errorf("error message %q does not mention the deadline", msg)
	}
}

func TestFailedJobNotCached(t *testing.T) {
	sr := newStubRegistry()
	s := New(Config{QueueCapacity: 4, Workers: 1, Lookup: sr.lookup})
	defer s.Drain(context.Background())

	req := Request{Experiment: "fail", Params: ParamSpec{Seed: 1}}
	first, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, first)
	if st := first.State(); st != StateFailed {
		t.Fatalf("state = %v, want failed", st)
	}
	second, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, second)
	if second.CacheHit() {
		t.Error("failed result was served from the cache")
	}
	if sr.runs.Load() != 2 {
		t.Errorf("runs = %d, want 2 (failures re-execute)", sr.runs.Load())
	}
}

// A job whose experiment panics — in a cell of its grid or outside
// one — ends failed with the panic in its message, and the daemon runs
// the next job: one bad experiment does not end the process.
func TestPanickingJobFailsAlone(t *testing.T) {
	sr := newStubRegistry()
	s := New(Config{QueueCapacity: 4, Workers: 1, Lookup: sr.lookup})
	defer s.Drain(context.Background())

	for _, tc := range []struct{ name, want string }{
		{"panicky", "cell 3: panic: cell three exploded"},
		{"panic", "panic: merge exploded"},
	} {
		bad, err := s.Submit(Request{Experiment: tc.name})
		if err != nil {
			t.Fatal(err)
		}
		next, err := s.Submit(Request{Experiment: "echo", Params: ParamSpec{Seed: 5}})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, bad)
		if _, msg := bad.Output(); bad.State() != StateFailed || msg != tc.want {
			t.Errorf("%s: state %v, message %q; want failed, %q", tc.name, bad.State(), msg, tc.want)
		}
		waitTerminal(t, next)
		if out, _ := next.Output(); next.State() != StateDone || out.Text != "seed=5" {
			t.Errorf("the job after %s: state %v, text %q; want done, seed=5", tc.name, next.State(), out.Text)
		}
	}
}

func TestProgressPropagates(t *testing.T) {
	sr := newStubRegistry()
	s := New(Config{QueueCapacity: 4, Workers: 1, Lookup: sr.lookup})
	defer s.Drain(context.Background())

	job, err := s.Submit(Request{Experiment: "ticker", Params: ParamSpec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	v := job.Snapshot(time.Now())
	if v.Progress == nil || v.Progress.Done != 4 || v.Progress.Total != 4 {
		t.Errorf("progress = %+v, want 4/4", v.Progress)
	}
}

func TestDrainGraceful(t *testing.T) {
	// Drain with a live job: submissions are refused immediately, the
	// job finishes, Drain returns nil.
	sr := newStubRegistry()
	s := New(Config{QueueCapacity: 4, Workers: 1, Lookup: sr.lookup})

	job, err := s.Submit(Request{Experiment: "block", Params: ParamSpec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sr.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()

	// Admission is closed as soon as Drain begins.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := s.Submit(Request{Experiment: "echo", Params: ParamSpec{Seed: 2}})
		if errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submission during drain: err = %v, want ErrDraining", err)
		}
		time.Sleep(time.Millisecond)
	}

	close(sr.release) // let the in-flight job complete
	if err := <-drainErr; err != nil {
		t.Fatalf("graceful drain returned %v", err)
	}
	if st := job.State(); st != StateDone {
		t.Fatalf("in-flight job after drain = %v, want done", st)
	}
}

func TestDrainForcedCancelsInFlight(t *testing.T) {
	// A drain whose grace period expires cancels the in-flight job and
	// reports it cancelled — never lost.
	sr := newStubRegistry()
	s := New(Config{QueueCapacity: 4, Workers: 1, Lookup: sr.lookup})

	job, err := s.Submit(Request{Experiment: "block", Params: ParamSpec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sr.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want DeadlineExceeded", err)
	}
	if st := job.State(); st != StateCancelled {
		t.Fatalf("in-flight job after forced drain = %v, want cancelled", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.put("a", experiments.Output{Text: "A"}, "j1")
	c.put("b", experiments.Output{Text: "B"}, "j2")
	if _, ok := c.get("a"); !ok { // refresh a
		t.Fatal("a missing")
	}
	c.put("c", experiments.Output{Text: "C"}, "j3") // evicts b
	if _, ok := c.get("b"); ok {
		t.Error("b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted despite recent use")
	}
	if c.len() != 2 {
		t.Errorf("len = %d", c.len())
	}
	// Capacity 0 disables caching.
	off := newResultCache(0)
	off.put("x", experiments.Output{}, "j")
	if _, ok := off.get("x"); ok {
		t.Error("disabled cache stored a result")
	}
}

// TestCancelRunningGridExperiment: cancelling a running fig14 job stops
// its grid between cells and the job ends cancelled, not done.
func TestCancelRunningGridExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	s := New(Config{QueueCapacity: 2, Workers: 1})
	defer s.Drain(context.Background())

	job, err := s.Submit(Request{Experiment: "fig14", Params: ParamSpec{Seed: 3, RPCs: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	updates := job.watch()
	defer job.unwatch(updates)
	for job.State() == StateQueued {
		select {
		case <-updates:
		case <-time.After(10 * time.Second):
			t.Fatal("job never started")
		}
	}
	if _, err := s.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	if st := job.State(); st != StateCancelled {
		t.Errorf("state after cancelling the running job = %v, want %v", st, StateCancelled)
	}
}

func TestRealRegistrySmoke(t *testing.T) {
	// End to end against the real experiments registry: the validate
	// experiment at reduced trials, then a cache hit.
	if testing.Short() {
		t.Skip("real simulation")
	}
	s := New(Config{QueueCapacity: 2, Workers: 1})
	defer s.Drain(context.Background())

	req := Request{Experiment: "validate", Params: ParamSpec{Seed: 3, Trials: 50}}
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	if st := job.State(); st != StateDone {
		_, msg := job.Output()
		t.Fatalf("validate: state %v (%s)", st, msg)
	}
	out, _ := job.Output()
	if !strings.Contains(out.Text, "Simulator validation") {
		t.Errorf("unexpected output: %.80q", out.Text)
	}
	again, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit() {
		t.Error("identical resubmission was not a cache hit")
	}
}

// Key returns the job's canonical cache key.
func (j *Job) Key() string { return j.key }

// Registry returns the metrics registry the service reports into.
func (s *Service) Registry() *metrics.Registry { return s.reg }
