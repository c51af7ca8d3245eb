package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/quartz-dcn/quartz/internal/cluster"
	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/service"
)

// sweepNames are the two grid-shaped experiments a cluster pass posts.
var sweepNames = []string{"table8", "ablations"}

// sweepParams are the sweeps' parameters; the smoke path shrinks them.
func sweepParams(e *env, seed int64) experiments.Params {
	p := experiments.Params{Seed: seed, Trials: 500, Tasks: 4, RPCs: 200}
	if e.smoke {
		p.Trials, p.RPCs = 20, 20
	}
	return p
}

// wireCounts is what the coordinator sent to its workers, as the
// counting transport saw it. Health probes are left out: they are
// paced by the clock, not by sweeps.
type wireCounts struct {
	requests, bytes int64
	posts           int64 // POST /jobs, any answer
	dispatches      int64 // POST /jobs answered 2xx
	distinctRanges  int64
}

func (a wireCounts) since(b wireCounts) wireCounts {
	return wireCounts{
		requests: a.requests - b.requests, bytes: a.bytes - b.bytes, posts: a.posts - b.posts,
		dispatches: a.dispatches - b.dispatches, distinctRanges: a.distinctRanges - b.distinctRanges,
	}
}

// countingTransport is the RoundTripper handed to cluster.Config.Client:
// it counts the coordinator→worker traffic and, in the traced run,
// records one span per request on the worker's track under the sweep
// that is running.
type countingTransport struct {
	next   http.RoundTripper
	tracks map[string]int // worker host → span track

	tr        *tracer
	sweepSpan atomic.Int64

	mu     sync.Mutex
	c      wireCounts
	ranges map[string]bool
}

func (t *countingTransport) snapshot() wireCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c
}

// route reduces a worker URL path to the quartzd route it hits.
func route(method, path string) string {
	switch {
	case path == "/jobs":
		return method + " /jobs"
	case strings.HasSuffix(path, "/result"):
		return method + " result"
	case strings.HasPrefix(path, "/jobs/"):
		return method + " job"
	}
	return method + " " + path
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/healthz" {
		return t.next.RoundTrip(req)
	}
	var sent []byte
	if req.Body != nil {
		var err error
		if sent, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body.Close()
		req.Body = io.NopCloser(bytes.NewReader(sent))
	}
	// Requests outside a traced sweep (untraced passes, requeues after
	// the sweep ended) record no span.
	parent, tr := int(t.sweepSpan.Load()), t.tr
	if parent == 0 {
		tr = nil
	}
	sp := tr.begin("http:"+route(req.Method, req.URL.Path), parent, tr.opOf(parent), t.tracks[req.URL.Host])
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		tr.finish(sp)
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.finish(sp)
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))

	t.mu.Lock()
	t.c.requests++
	t.c.bytes += int64(len(sent) + len(body))
	if req.Method == http.MethodPost && req.URL.Path == "/jobs" {
		t.c.posts++
		if resp.StatusCode < 300 {
			t.c.dispatches++
		}
		// A range posted a second time (after a 429 or a worker
		// failure) is a retry; the request body identifies the range.
		if !t.ranges[string(sent)] {
			t.ranges[string(sent)] = true
			t.c.distinctRanges++
		}
	}
	t.mu.Unlock()
	return resp, nil
}

// clusterFixture is an in-process quartzd cluster on loopback: worker
// daemons with one simulation worker each, and a coordinator whose
// own service fans sweep experiments out to them.
type clusterFixture struct {
	workers    []*service.Service
	workerSrvs []*httptest.Server
	coord      *cluster.Coordinator
	svc        *service.Service
	srv        *httptest.Server
	wire       *countingTransport
	client     *qdClient
	exps       []experiments.Experiment
}

func newClusterFixture(nWorkers int, tr *tracer) (*clusterFixture, error) {
	exps, err := findAll(sweepNames)
	if err != nil {
		return nil, err
	}
	f := &clusterFixture{exps: exps}
	f.wire = &countingTransport{
		next:   &http.Transport{MaxIdleConnsPerHost: 4},
		tracks: map[string]int{},
		tr:     tr,
		ranges: map[string]bool{},
	}
	var urls []string
	for i := 0; i < nWorkers; i++ {
		w := service.New(service.Config{Workers: 1})
		srv := httptest.NewServer(w.Handler(nil))
		f.workers = append(f.workers, w)
		f.workerSrvs = append(f.workerSrvs, srv)
		urls = append(urls, srv.URL)
		f.wire.tracks[strings.TrimPrefix(srv.URL, "http://")] = 10 + i
	}
	f.coord = cluster.New(cluster.Config{Workers: urls, Client: &http.Client{Transport: f.wire}})
	f.svc = service.New(service.Config{Lookup: f.coord.WrapLookup(nil)})
	mux := http.NewServeMux()
	mux.Handle("/cluster", f.coord.Handler())
	mux.Handle("/cluster/", f.coord.Handler())
	mux.Handle("/", f.svc.Handler(nil))
	f.srv = httptest.NewServer(mux)
	f.client = newQDClient(f.srv.URL, tr, 0)
	return f, nil
}

func (f *clusterFixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.client.close()
	f.srv.Close()
	_ = f.svc.Drain(ctx) // nothing is in flight: every job was waited for
	f.coord.Close()
	for i, w := range f.workers {
		f.workerSrvs[i].Close()
		_ = w.Drain(ctx)
	}
	if t, ok := f.wire.next.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

func sweepBody(name string, p experiments.Params) []byte {
	b, _ := json.Marshal(map[string]interface{}{
		"experiment": name,
		"params":     map[string]interface{}{"seed": p.Seed, "trials": p.Trials, "tasks": p.Tasks, "rpcs": p.RPCs},
	})
	return b
}

// sweep posts one sweep experiment to the coordinator and waits for
// the merged result, under a "sweep:<name>" span that the transport's
// per-worker spans hang from.
func (f *clusterFixture) sweep(exp experiments.Experiment, p experiments.Params, tr *tracer, parent int) (string, error) {
	sp := tr.begin("sweep:"+exp.Name, parent, tr.opOf(parent), 0)
	f.wire.sweepSpan.Store(int64(sp))
	f.client.tr = tr
	res, _, err := f.client.runJob(sp, sweepBody(exp.Name, p))
	f.wire.sweepSpan.Store(0)
	tr.finish(sp)
	return res.Text, err
}

// pass posts table8 then ablations. With verify, each merged text must
// equal a local Experiment.Run of the same parameters byte for byte.
func (f *clusterFixture) pass(p experiments.Params, tr *tracer, passSpan int, verify bool) passResult {
	pr := passResult{jobs: len(f.exps)}
	h := sha256.New()
	for _, exp := range f.exps {
		text, err := f.sweep(exp, p, tr, passSpan)
		if err == nil && text == "" {
			err = fmt.Errorf("empty merged output")
		}
		if err == nil && verify {
			sp := tr.begin("local:"+exp.Name, passSpan, tr.opOf(passSpan), 0)
			local, lerr := exp.Run(context.Background(), p)
			tr.finish(sp)
			switch {
			case lerr != nil:
				err = fmt.Errorf("local run: %w", lerr)
			case local.Text != text:
				err = fmt.Errorf("cluster-merged text differs from a local run (%d vs %d bytes)", len(text), len(local.Text))
			}
		}
		if err != nil {
			pr.bad++
			if pr.err == nil {
				pr.err = fmt.Errorf("%s seed %d: %w", exp.Name, p.Seed, err)
			}
			continue
		}
		h.Write([]byte(text))
	}
	pr.digest = hex.EncodeToString(h.Sum(nil))
	return pr
}

// passSeed gives pass i its own seed, so that neither the
// coordinator's result cache nor a worker's range cache ever hits.
func passSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) + 1 }

func clusterSweep(e *env) *batchWorkload {
	seed := e.seed
	return &batchWorkload{
		name: "cluster_sweep", params: sweepParams(e, passSeed(seed, -1)),
		setup: func(e *env) (*batchFixture, error) {
			f, err := newClusterFixture(e.parallelism(), e.tr)
			if err != nil {
				return nil, err
			}
			return &batchFixture{
				pass: func(i int, tr *tracer, passSpan int, verify bool) passResult {
					return f.pass(sweepParams(e, passSeed(seed, i)), tr, passSpan, verify)
				},
				close: f.close,
			}, nil
		},
	}
}
