package cluster_test

// Fault drills: a scripted http.RoundTripper in cluster.Config.Client
// (the hook bench/cluster.go counts traffic through) sits between the
// coordinator and real workers and misbehaves for one of them, one
// fault per table row. Every row ends the same way — the merged bytes
// equal a local run — and names what else must hold.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/quartz-dcn/quartz/internal/cluster"
	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/service"
)

// routeOf reduces a worker request to the quartzd route it hits.
func routeOf(req *http.Request) string {
	path := req.URL.Path
	switch {
	case strings.HasSuffix(path, "/events"):
		return "GET events"
	case strings.HasSuffix(path, "/result"):
		return "GET result"
	case strings.HasPrefix(path, "/jobs/"):
		return req.Method + " job"
	}
	return req.Method + " " + path
}

// chaosTransport counts every coordinator→worker request by host and
// route, and lets fault answer for (or rewrite the answer of) any
// request to the host named bad.
type chaosTransport struct {
	next  http.RoundTripper
	bad   string // host of the misbehaving worker
	fault func(c *chaosTransport, route string, req *http.Request) (*http.Response, error)

	mu     sync.Mutex
	counts map[string]int // "host route" → requests
	struck bool           // set by a drill once its fault has struck
}

func (c *chaosTransport) count(host, route string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[host+" "+route]
}

func (c *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeOf(req)
	c.mu.Lock()
	c.counts[req.URL.Host+" "+route]++
	c.mu.Unlock()
	if c.fault != nil && req.URL.Host == c.bad {
		return c.fault(c, route, req)
	}
	return c.next.RoundTrip(req)
}

// answer fabricates a worker response.
func answer(req *http.Request, status int, header http.Header, body io.ReadCloser) *http.Response {
	if header == nil {
		header = http.Header{}
	}
	return &http.Response{
		StatusCode: status, Status: http.StatusText(status), Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: header, Body: body, Request: req, ContentLength: -1,
	}
}

// rewrite passes the request to the real worker and edits the JSON
// object it answers with.
func (c *chaosTransport) rewrite(req *http.Request, edit func(obj map[string]json.RawMessage)) (*http.Response, error) {
	resp, err := c.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		return nil, err
	}
	edit(obj)
	raw, _ = json.Marshal(obj)
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	resp.ContentLength = int64(len(raw))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// rewriteBlock edits the cell block inside a GET result answer.
func (c *chaosTransport) rewriteBlock(req *http.Request, edit func(b *experiments.CellBlock)) (*http.Response, error) {
	return c.rewrite(req, func(obj map[string]json.RawMessage) {
		var text string
		_ = json.Unmarshal(obj["text"], &text)
		block, err := experiments.DecodeBlock(text)
		if err != nil {
			panic(err)
		}
		edit(&block)
		enc, _ := json.Marshal(block)
		obj["text"], _ = json.Marshal(string(enc))
	})
}

// lockedBuffer is a log sink the heartbeat goroutines may write while
// the test reads.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// captureLogs points the default slog logger (the one internal/cluster
// writes to) at a buffer of JSON records for the rest of the test.
func captureLogs(t *testing.T) *lockedBuffer {
	logs := &lockedBuffer{}
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(logs, nil)))
	t.Cleanup(func() {
		slog.SetDefault(prev)
		// SetDefault also routed package log through the JSON handler,
		// and setting the stock logger back does not undo that.
		log.SetOutput(os.Stderr)
		log.SetFlags(log.LstdFlags)
	})
	return logs
}

// TestClusterFaultDrills: one row per way a worker can misbehave on the
// wire. A worker fault requeues the range onto the survivor and (where
// the row says so) leaves the worker dead; backpressure does neither.
func TestClusterFaultDrills(t *testing.T) {
	const never = time.Hour // heartbeat that probes once at start, so a death sticks
	pass := func(c *chaosTransport, _ string, req *http.Request) (*http.Response, error) {
		return c.next.RoundTrip(req)
	}
	onRoute := func(route string, f func(c *chaosTransport, req *http.Request) (*http.Response, error)) func(*chaosTransport, string, *http.Request) (*http.Response, error) {
		return func(c *chaosTransport, got string, req *http.Request) (*http.Response, error) {
			if got != route {
				return pass(c, got, req)
			}
			return f(c, req)
		}
	}
	drills := []struct {
		name      string
		heartbeat time.Duration
		fault     func(c *chaosTransport, route string, req *http.Request) (*http.Response, error)
		// outcome
		requeued bool          // the range moved to the survivor and a retry was counted
		badDead  bool          // GET /cluster shows the bad worker dead afterwards
		within   time.Duration // the sweep is over this soon (0: only "before the test's deadline")
	}{
		{
			name: "stream cut mid-job", heartbeat: never, requeued: true, badDead: true,
			fault: onRoute("GET events", func(_ *chaosTransport, req *http.Request) (*http.Response, error) {
				cut := "event: state\ndata: {\"id\":\"j\",\"state\":\"running\",\"error\":\"\"}\n\nevent: progress\ndata: {\"done\":1,"
				return answer(req, 200, nil, io.NopCloser(strings.NewReader(cut))), nil
			}),
		},
		{
			// One failed 20 ms heartbeat ends the wait; two seconds is the
			// slack a loaded box gets, against a hang that never ends.
			name: "stream silent, healthz failing", heartbeat: 20 * time.Millisecond, requeued: true, badDead: true, within: 2 * time.Second,
			fault: func(c *chaosTransport, route string, req *http.Request) (*http.Response, error) {
				switch route {
				case "GET events": // accept the stream, then say nothing until the coordinator hangs up
					c.mu.Lock()
					c.struck = true
					c.mu.Unlock()
					pr, pw := io.Pipe()
					context.AfterFunc(req.Context(), func() { pw.CloseWithError(req.Context().Err()) })
					return answer(req, 200, nil, pr), nil
				case "GET /healthz":
					c.mu.Lock()
					struck := c.struck
					c.mu.Unlock()
					if struck {
						return nil, fmt.Errorf("injected: healthz unreachable")
					}
				}
				return pass(c, route, req)
			},
		},
		{
			name: "events 404", heartbeat: never, requeued: true, badDead: true,
			fault: onRoute("GET events", func(_ *chaosTransport, req *http.Request) (*http.Response, error) {
				return answer(req, 404, nil, io.NopCloser(strings.NewReader(`{"error":"unknown job"}`))), nil
			}),
		},
		{
			name: "event line over 1 MiB", heartbeat: never, requeued: true, badDead: true,
			fault: onRoute("GET events", func(_ *chaosTransport, req *http.Request) (*http.Response, error) {
				return answer(req, 200, nil, io.NopCloser(strings.NewReader("data: "+strings.Repeat("x", 1<<20+1)+"\n"))), nil
			}),
		},
		{
			name: "wrong-range block", heartbeat: never, requeued: true, badDead: true,
			fault: onRoute("GET result", func(c *chaosTransport, req *http.Request) (*http.Response, error) {
				return c.rewriteBlock(req, func(b *experiments.CellBlock) { b.Lo, b.Hi = b.Lo+1, b.Hi+1 })
			}),
		},
		{
			name: "short block", heartbeat: never, requeued: true, badDead: true,
			fault: onRoute("GET result", func(c *chaosTransport, req *http.Request) (*http.Response, error) {
				return c.rewriteBlock(req, func(b *experiments.CellBlock) {
					var vals []json.RawMessage
					_ = json.Unmarshal(b.Data, &vals)
					b.Data, _ = json.Marshal(vals[1:])
				})
			}),
		},
		{
			name: "block under another key", heartbeat: never, requeued: true, badDead: true,
			fault: onRoute("POST /jobs", func(c *chaosTransport, req *http.Request) (*http.Response, error) {
				return c.rewrite(req, func(obj map[string]json.RawMessage) {
					obj["key"], _ = json.Marshal(experiments.CacheKeyRange("grid", experiments.Params{Seed: 99}, 0, 4))
				})
			}),
		},
		{
			name: "429 on submit", heartbeat: never, requeued: false, badDead: false,
			fault: onRoute("POST /jobs", func(c *chaosTransport, req *http.Request) (*http.Response, error) {
				c.mu.Lock()
				first := !c.struck
				c.struck = true
				c.mu.Unlock()
				if !first {
					return c.next.RoundTrip(req)
				}
				return answer(req, 429, http.Header{"Retry-After": {"1"}}, io.NopCloser(strings.NewReader(`{"error":"queue full"}`))), nil
			}),
		},
	}

	lookup := stubLookup(16, time.Millisecond)
	exp, _ := lookup("grid")
	params := service.ParamSpec{Seed: 5}
	want, err := exp.Run(context.Background(), params.Params())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range drills {
		t.Run(d.name, func(t *testing.T) {
			logs := captureLogs(t)
			good, bad := newWorker(t, lookup, nil), newWorker(t, lookup, nil)
			badHost := strings.TrimPrefix(bad.URL, "http://")
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			ch := &chaosTransport{next: tr, bad: badHost, fault: d.fault, counts: map[string]int{}}
			coord, s, reg := newCoordinatorWith(t, lookup, cluster.Config{
				Workers: []string{good.URL, bad.URL}, HeartbeatInterval: d.heartbeat, Client: &http.Client{Transport: ch},
			})
			// Let each worker's first probe land: after it, only the drill
			// decides who is alive.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				if ch.count(badHost, "GET /healthz") > 0 && ch.count(strings.TrimPrefix(good.URL, "http://"), "GET /healthz") > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("workers never probed")
				}
			}
			time.Sleep(10 * time.Millisecond) // the probe's answer, applied

			start := time.Now()
			j, err := s.Submit(service.Request{Experiment: "grid", Params: params})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := j.Wait(ctx); err != nil {
				t.Fatalf("sweep hung on the fault: %v", err)
			}
			if took := time.Since(start); d.within > 0 && took > d.within {
				t.Errorf("sweep took %v, want under %v", took, d.within)
			}
			out, errMsg := j.Output()
			if errMsg != "" {
				t.Fatalf("a worker fault failed the sweep: %s", errMsg)
			}
			if out.Text != want.Text {
				t.Errorf("merged output differs from a local run\nlocal:   %s\ncluster: %s", want.Text, out.Text)
			}
			if ch.count(badHost, "POST /jobs") == 0 {
				t.Fatalf("the bad worker was never offered a range: the drill did not run")
			}

			retries := seriesValue(t, reg, "quartzd_cluster_retries_total", nil)
			requeueLogged := strings.Contains(logs.String(), `"msg":"cluster: range requeued"`)
			if d.requeued {
				if retries < 1 {
					t.Errorf("retries_total = %v, want >= 1", retries)
				}
				var rec struct {
					Worker, Trace, Err string
					Lo, Hi             int
				}
				for _, line := range strings.Split(logs.String(), "\n") {
					if strings.Contains(line, `"msg":"cluster: range requeued"`) {
						_ = json.Unmarshal([]byte(line), &rec)
						break
					}
				}
				if rec.Worker != bad.URL || rec.Hi <= rec.Lo || rec.Trace == "" || rec.Err == "" {
					t.Errorf("requeue log record lacks worker/range/trace/err: %+v\n%s", rec, logs.String())
				}
			} else if retries != 0 || requeueLogged {
				t.Errorf("backpressure counted as a fault: retries_total = %v, requeue logged = %v", retries, requeueLogged)
			}
			if !d.requeued && ch.count(badHost, "POST /jobs") < 2 {
				t.Errorf("the 429'd range was not offered to the same worker again")
			}
			for _, w := range coord.WorkersSnapshot() {
				if w.URL == bad.URL && w.Alive == d.badDead {
					t.Errorf("bad worker alive = %v, want %v (last error %q)", w.Alive, !d.badDead, w.LastError)
				}
				if w.URL == good.URL && !w.Alive {
					t.Errorf("the healthy worker was marked dead: %q", w.LastError)
				}
			}
			if d.badDead && !strings.Contains(logs.String(), `"msg":"cluster: worker dead"`) {
				t.Errorf("no worker-dead log record:\n%s", logs.String())
			}
		})
	}
}

// TestSweepRequestBudget: a fault-free sweep costs exactly three
// requests per range — submit, events, result — and never polls
// GET /jobs/{id}. Counted at the transport, so the gate holds on any
// machine.
func TestSweepRequestBudget(t *testing.T) {
	w1, w2 := newWorker(t, nil, nil), newWorker(t, nil, nil)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	ch := &chaosTransport{next: tr, counts: map[string]int{}}
	_, s, reg := newCoordinatorWith(t, nil, cluster.Config{
		Workers: []string{w1.URL, w2.URL}, HeartbeatInterval: time.Hour, Client: &http.Client{Transport: ch},
	})
	j, err := s.Submit(service.Request{Experiment: "table8", Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, errMsg := j.Output(); errMsg != "" {
		t.Fatalf("sweep failed: %s", errMsg)
	}
	ranges := int(seriesValue(t, reg, "quartzd_cluster_dispatches_total", nil))
	if ranges != 4 {
		t.Fatalf("dispatched %d ranges, want 4 (two per worker)", ranges)
	}
	byRoute := map[string]int{}
	total := 0
	ch.mu.Lock()
	for key, n := range ch.counts {
		route := key[strings.Index(key, " ")+1:]
		if route == "GET /healthz" {
			continue // paced by the clock, not by sweeps
		}
		byRoute[route] += n
		total += n
	}
	ch.mu.Unlock()
	for _, route := range []string{"POST /jobs", "GET events", "GET result"} {
		if byRoute[route] != ranges {
			t.Errorf("%s: %d requests for %d ranges", route, byRoute[route], ranges)
		}
	}
	if byRoute["GET job"] != 0 {
		t.Errorf("%d polls of GET /jobs/{id}; completion is pushed, not polled", byRoute["GET job"])
	}
	if total != 3*ranges {
		t.Errorf("%d requests for %d ranges, want exactly %d: %v", total, ranges, 3*ranges, byRoute)
	}
}
