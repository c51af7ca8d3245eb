package cluster_test

// Cluster integration tests: real service.Service instances fronted by
// httptest servers play the workers, a Coordinator wired into another
// service plays the coordinator — the full production path minus TCP
// ports. The load-bearing assertion everywhere: cluster output is
// byte-identical to a single process, for every worker count and
// through worker death.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/quartz-dcn/quartz/internal/cluster"
	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/metrics"
	"github.com/quartz-dcn/quartz/internal/service"
)

// testParams keeps the real experiments quick: enough trials, tasks and
// RPCs to exercise every cell, few enough that a 4-variant suite over
// every sweep stays inside CI budgets.
func testParams() service.ParamSpec {
	return service.ParamSpec{Seed: 7, Trials: 40, Tasks: 2, RPCs: 50}
}

// newWorker stands up one worker daemon: a real service over the real
// experiments registry (or lookup), wrapped by tamper when non-nil.
func newWorker(t *testing.T, lookup func(string) (experiments.Experiment, bool), tamper func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	s := service.New(service.Config{QueueCapacity: 32, Workers: 1, Lookup: lookup})
	h := http.Handler(s.Handler(nil))
	if tamper != nil {
		h = tamper(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return ts
}

// newCoordinator stands up the coordinator tier over the given worker
// URLs: a Coordinator plus the service that fronts it.
func newCoordinator(t *testing.T, lookup func(string) (experiments.Experiment, bool), workerURLs []string) (*cluster.Coordinator, *service.Service, *metrics.Registry) {
	t.Helper()
	return newCoordinatorWith(t, lookup, cluster.Config{Workers: workerURLs, HeartbeatInterval: 50 * time.Millisecond})
}

// newCoordinatorWith is newCoordinator for tests that set the
// heartbeat or the HTTP client themselves.
func newCoordinatorWith(t *testing.T, lookup func(string) (experiments.Experiment, bool), cfg cluster.Config) (*cluster.Coordinator, *service.Service, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	cfg.Registry = reg
	coord := cluster.New(cfg)
	s := service.New(service.Config{QueueCapacity: 16, Workers: 2, Lookup: coord.WrapLookup(lookup), Registry: reg})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		coord.Close()
	})
	return coord, s, reg
}

// runCluster executes one experiment through a fresh cluster of n
// workers and returns its output.
func runCluster(t *testing.T, name string, workers int, tamper func(i int, h http.Handler) http.Handler) experiments.Output {
	t.Helper()
	urls := make([]string, workers)
	for i := range urls {
		var wrap func(http.Handler) http.Handler
		if tamper != nil {
			i := i
			wrap = func(h http.Handler) http.Handler { return tamper(i, h) }
		}
		urls[i] = newWorker(t, nil, wrap).URL
	}
	_, s, _ := newCoordinator(t, nil, urls)
	j, err := s.Submit(service.Request{Experiment: name, Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("cluster job for %s never finished: %v", name, err)
	}
	out, errMsg := j.Output()
	if errMsg != "" {
		t.Fatalf("cluster job for %s failed: %s", name, errMsg)
	}
	return out
}

// runSingle executes the same experiment in-process, the byte-identity
// baseline.
func runSingle(t *testing.T, name string) experiments.Output {
	t.Helper()
	exp, ok := experiments.Find(name)
	if !ok {
		t.Fatalf("no experiment %q", name)
	}
	p := testParams().Params().WithDefaults()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	out, err := exp.Run(ctx, p)
	if err != nil {
		t.Fatalf("single-process %s: %v", name, err)
	}
	return out
}

// TestClusterMergeByteIdentical: for every registry experiment that
// publishes a sweep, cluster output at worker counts {1, 2, 4} is
// byte-identical to the single-process run, event count included — the
// tentpole determinism guarantee.
func TestClusterMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations across 3 worker counts")
	}
	for _, exp := range experiments.All() {
		if exp.Sweep == nil {
			continue
		}
		name := exp.Name
		want := runSingle(t, name)
		for _, workers := range []int{1, 2, 4} {
			got := runCluster(t, name, workers, nil)
			if got.Text != want.Text {
				t.Errorf("%s with %d workers: text differs from single-process run\nsingle:\n%s\ncluster:\n%s",
					name, workers, want.Text, got.Text)
			}
			if !reflect.DeepEqual(got.Tables, want.Tables) {
				t.Errorf("%s with %d workers: tables differ from single-process run", name, workers)
			}
			if got.Events != want.Events {
				t.Errorf("%s with %d workers: %d events, single-process run %d", name, workers, got.Events, want.Events)
			}
		}
	}
}

// flakyHandler serves its worker's first sub-job submission, then
// fails every request — the "worker killed mid-sweep" fault: the
// coordinator's event stream is refused, it requeues the range, and
// the survivor finishes the sweep.
type flakyHandler struct {
	inner http.Handler

	mu      sync.Mutex
	submits int
	broken  bool
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	if f.broken {
		f.mu.Unlock()
		http.Error(w, "injected worker death", http.StatusInternalServerError)
		return
	}
	if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/jobs") {
		f.submits++
		if f.submits == 1 {
			f.broken = true // serve this submission, then go dark
		}
	}
	f.mu.Unlock()
	f.inner.ServeHTTP(w, r)
}

// TestClusterWorkerDeathMidSweep: killing one of two workers mid-sweep
// requeues only its unfinished ranges; the result is still
// byte-identical to the single-process run and the retry path is
// visibly taken.
func TestClusterWorkerDeathMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	want := runSingle(t, "table8")

	healthy := newWorker(t, nil, nil)
	fl := &flakyHandler{}
	flakyTS := newWorker(t, nil, func(h http.Handler) http.Handler {
		fl.inner = h
		return fl
	})
	_, s, reg := newCoordinator(t, nil, []string{healthy.URL, flakyTS.URL})

	j, err := s.Submit(service.Request{Experiment: "table8", Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job never finished: %v", err)
	}
	out, errMsg := j.Output()
	if errMsg != "" {
		t.Fatalf("sweep failed despite a surviving worker: %s", errMsg)
	}
	if out.Text != want.Text {
		t.Errorf("output after worker death differs from single-process run\nsingle:\n%s\ncluster:\n%s", want.Text, out.Text)
	}
	if got := seriesValue(t, reg, "quartzd_cluster_retries_total", nil); got < 1 {
		t.Errorf("retries_total = %v, want >= 1 (range requeued off the dead worker)", got)
	}
}

// seriesValue reads one metric series out of a registry snapshot.
func seriesValue(t *testing.T, reg *metrics.Registry, name string, labels metrics.Labels) float64 {
	t.Helper()
	for _, s := range reg.Snapshot().Series {
		if s.Name != name {
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

// stubLookup builds a synthetic sweep experiment "grid": cells cells,
// value seed*1000+index, optional per-cell delay so progress is
// observable in flight.
func stubLookup(cells int, perCell time.Duration) func(string) (experiments.Experiment, bool) {
	sw := &experiments.Sweep{
		Cells: func(experiments.Params) int { return cells },
		RunCells: func(ctx context.Context, p experiments.Params, lo, hi int) (experiments.CellBlock, error) {
			vals := make([]int64, hi-lo)
			for k := range vals {
				if perCell > 0 {
					select {
					case <-ctx.Done():
						return experiments.CellBlock{}, ctx.Err()
					case <-time.After(perCell):
					}
				}
				vals[k] = p.Seed*1000 + int64(lo+k)
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
	return func(name string) (experiments.Experiment, bool) {
		if name != "grid" {
			return experiments.Experiment{}, false
		}
		return experiments.Experiment{Name: "grid", Run: sw.Run, Sweep: sw}, true
	}
}

// TestClusterSSEAggregatesProgress: one SSE subscription on the
// coordinator watches the whole fan-out — progress events cover the
// full grid, not one worker's share.
func TestClusterSSEAggregatesProgress(t *testing.T) {
	lookup := stubLookup(16, 2*time.Millisecond)
	w1 := newWorker(t, lookup, nil)
	w2 := newWorker(t, lookup, nil)
	_, s, _ := newCoordinator(t, lookup, []string{w1.URL, w2.URL})
	ts := httptest.NewServer(s.Handler(nil))
	t.Cleanup(ts.Close)

	j, err := s.Submit(service.Request{Experiment: "grid", Params: service.ParamSpec{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + j.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sawFullGrid, sawDone bool
	buf := make([]byte, 4096)
	var stream strings.Builder
	for {
		n, rerr := resp.Body.Read(buf)
		stream.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	for _, line := range strings.Split(stream.String(), "\n") {
		if strings.HasPrefix(line, "data: ") {
			if strings.Contains(line, `"total":16`) {
				sawFullGrid = true
			}
			if strings.Contains(line, `"state":"done"`) {
				sawDone = true
			}
		}
	}
	if !sawFullGrid {
		t.Errorf("no progress event against the full 16-cell grid:\n%s", stream.String())
	}
	if !sawDone {
		t.Errorf("stream closed without a terminal state event:\n%s", stream.String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	out, _ := j.Output()
	if !strings.HasPrefix(out.Text, "grid=[5000 5001") {
		t.Errorf("merged output wrong: %.60q", out.Text)
	}
}

// TestClusterSharedCacheTier: a worker that already computed a cell
// range serves it from its LRU on the next sweep — the coordinator's
// second fan-out completes without recomputation (observable as worker
// cache hits).
func TestClusterSharedCacheTier(t *testing.T) {
	lookup := stubLookup(8, 0)
	w := newWorker(t, lookup, nil)
	_, s, _ := newCoordinator(t, lookup, []string{w.URL})

	submit := func() *service.Job {
		t.Helper()
		// NoCache on the coordinator forces re-dispatch; the workers'
		// block caches are the tier under test.
		j, err := s.Submit(service.Request{Experiment: "grid", Params: service.ParamSpec{Seed: 9}, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		return j
	}
	first := submit()
	second := submit()
	fo, _ := first.Output()
	so, _ := second.Output()
	if fo.Text != so.Text {
		t.Fatalf("re-dispatched sweep output differs: %q vs %q", fo.Text, so.Text)
	}
	// The worker answered the second sweep's ranges from its cache.
	resp, err := http.Get(w.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var hits float64
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "quartzd_cache_hits_total") {
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &hits)
		}
	}
	if hits < 1 {
		t.Errorf("worker cache hits = %v, want >= 1 (shared cache tier)", hits)
	}
}

// TestClusterWorkerList: the worker set is the configured list, one
// worker per URL in URL order, however often and with whatever trailing
// "/" the list names it.
func TestClusterWorkerList(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers []string
		want    []string
	}{
		{"once", []string{"http://127.0.0.1:1"}, []string{"http://127.0.0.1:1"}},
		{"named twice", []string{"http://127.0.0.1:1", "http://127.0.0.1:1"}, []string{"http://127.0.0.1:1"}},
		{"trailing slash", []string{"http://127.0.0.1:1/", "http://127.0.0.1:1"}, []string{"http://127.0.0.1:1"}},
		{"URL order", []string{"http://127.0.0.1:2", "http://127.0.0.1:1/", "http://127.0.0.1:2/"}, []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}},
		{"none", nil, []string{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			// Nothing listens on these ports, and nothing here waits
			// for a probe to say so.
			coord := cluster.New(cluster.Config{Workers: tc.workers, HeartbeatInterval: time.Hour, Registry: reg})
			defer coord.Close()
			got := []string{}
			for _, w := range coord.WorkersSnapshot() {
				got = append(got, w.URL)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("WorkersSnapshot URLs = %q, want %q", got, tc.want)
			}
			total := reg.Gauge("quartzd_cluster_workers_total", "workers known to the coordinator", nil).Value()
			if total != float64(len(tc.want)) {
				t.Errorf("quartzd_cluster_workers_total = %v, want %d", total, len(tc.want))
			}
		})
	}
}

// TestClusterNoWorkers: a sweep with nothing to run on fails fast with
// ErrNoWorkers instead of hanging.
func TestClusterNoWorkers(t *testing.T) {
	lookup := stubLookup(4, 0)
	_, s, _ := newCoordinator(t, lookup, nil)
	j, err := s.Submit(service.Request{Experiment: "grid", Params: service.ParamSpec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, errMsg := j.Output(); !strings.Contains(errMsg, cluster.ErrNoWorkers.Error()) {
		t.Errorf("error = %q, want ErrNoWorkers", errMsg)
	}
}

// TestClusterEmptyGrid: a sweep whose grid is empty under the submitted
// parameters (fig17 with tasks < 1) fails fast instead of waiting for
// ranges that will never be queued.
func TestClusterEmptyGrid(t *testing.T) {
	lookup := stubLookup(0, 0)
	w := newWorker(t, lookup, nil)
	_, s, _ := newCoordinator(t, lookup, []string{w.URL})
	j, err := s.Submit(service.Request{Experiment: "grid", Params: service.ParamSpec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, errMsg := j.Output(); !strings.Contains(errMsg, "grid of 0 cells") {
		t.Errorf("error = %q, want an empty-grid error", errMsg)
	}
}

// TestClusterRaceStress hammers heartbeat, snapshotting, and
// dispatch-with-requeue concurrently — meaningful under -race
// (make verify runs this package with the detector on). A permanently
// dead worker keeps the requeue path hot on every sweep.
func TestClusterRaceStress(t *testing.T) {
	lookup := stubLookup(32, 0)
	w1 := newWorker(t, lookup, nil)
	w2 := newWorker(t, lookup, nil)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "always down", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)

	reg := metrics.NewRegistry()
	coord := cluster.New(cluster.Config{
		Workers:           []string{w1.URL, w2.URL, dead.URL},
		HeartbeatInterval: 2 * time.Millisecond,
		Registry:          reg,
	})
	s := service.New(service.Config{QueueCapacity: 32, Workers: 2, Lookup: coord.WrapLookup(lookup), Registry: reg})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		coord.Close()
	})

	// Snapshot readers of the membership state for as long as the
	// sweeps run, racing the heartbeat monitors and the dead worker's
	// requeue and markDead path.
	var readers sync.WaitGroup
	sweepsDone := make(chan struct{})
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-sweepsDone:
					return
				case <-time.After(100 * time.Microsecond):
					_ = coord.WorkersSnapshot()
				}
			}
		}()
	}
	var wg sync.WaitGroup
	// Concurrent sweeps, each forced to execute (distinct seeds) and
	// each hitting the dead worker's requeue path.
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			j, err := s.Submit(service.Request{Experiment: "grid", Params: service.ParamSpec{Seed: seed}})
			if err != nil {
				errs <- err
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := j.Wait(ctx); err != nil {
				errs <- err
				return
			}
			if _, errMsg := j.Output(); errMsg != "" {
				errs <- errors.New(errMsg)
			}
		}(int64(100 + g))
	}
	wg.Wait()
	close(sweepsDone)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("stress sweep: %v", err)
	}
}
