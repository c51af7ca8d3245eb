package service

// Tests for the cluster-facing service surfaces: cell-range sub-jobs
// with range sub-key caching, the SSE progress stream, deterministic
// job listing, and the backpressure signals (jittered Retry-After,
// queue depth on /healthz).

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/quartz-dcn/quartz/internal/experiments"
)

func TestCellRangeSubJob(t *testing.T) {
	sr := newStubRegistry()
	s := New(Config{Lookup: sr.lookup})
	defer drain(t, s)

	req := Request{Experiment: "grid", Params: ParamSpec{Seed: 3}, Cells: &CellRange{Lo: 2, Hi: 5}}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	out, errMsg := j.Output()
	if errMsg != "" {
		t.Fatalf("sub-job failed: %s", errMsg)
	}
	block, err := experiments.DecodeBlock(out.Text)
	if err != nil {
		t.Fatalf("result text is not a cell block: %v", err)
	}
	if block.Lo != 2 || block.Hi != 5 {
		t.Errorf("block range [%d,%d), want [2,5)", block.Lo, block.Hi)
	}
	if want := experiments.CacheKeyRange("grid", req.Params.Params().WithDefaults(), 2, 5); j.Key() != want {
		t.Errorf("sub-job key %s, want range sub-key %s", j.Key(), want)
	}

	// The same range resubmitted — from any client — is a cache hit on
	// the sub-key; a different range of the same grid is not.
	runsBefore := sr.runs.Load()
	again, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, again)
	if !again.CacheHit() {
		t.Errorf("identical cell range not served from cache")
	}
	if sr.runs.Load() != runsBefore {
		t.Errorf("cache hit recomputed the range")
	}
	other, err := s.Submit(Request{Experiment: "grid", Params: ParamSpec{Seed: 3}, Cells: &CellRange{Lo: 5, Hi: 8}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, other)
	if other.CacheHit() {
		t.Errorf("different cell range unexpectedly hit the cache")
	}
}

func TestCellRangeValidation(t *testing.T) {
	sr := newStubRegistry()
	s := New(Config{Lookup: sr.lookup})
	defer drain(t, s)

	for name, req := range map[string]Request{
		"no sweep":    {Experiment: "echo", Cells: &CellRange{Lo: 0, Hi: 1}},
		"inverted":    {Experiment: "grid", Cells: &CellRange{Lo: 3, Hi: 3}},
		"negative":    {Experiment: "grid", Cells: &CellRange{Lo: -1, Hi: 2}},
		"off the end": {Experiment: "grid", Cells: &CellRange{Lo: 0, Hi: 9}},
	} {
		if _, err := s.Submit(req); !errors.Is(err, ErrBadRange) {
			t.Errorf("%s: got %v, want ErrBadRange", name, err)
		}
	}
}

// TestEventsSSE: the events stream delivers progress and a terminal
// state event, then closes.
func TestEventsSSE(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	_, v := postJob(t, ts, Request{Experiment: "ticker"})

	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var sawProgress, sawDone bool
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "progress" && strings.Contains(data, `"total":4`) {
				sawProgress = true
			}
			if event == "state" && strings.Contains(data, `"state":"done"`) {
				sawDone = true
			}
		}
	}
	// The stream must terminate on its own (scanner hits EOF) — that is
	// the close-on-terminal contract.
	if err := sc.Err(); err != nil && err != io.EOF {
		t.Fatalf("stream error: %v", err)
	}
	if !sawProgress {
		t.Errorf("no progress event with the experiment's total")
	}
	if !sawDone {
		t.Errorf("no terminal state event before stream close")
	}
}

// TestEventsSSEClientCancel: an abandoned subscription unblocks the
// handler (watcher removed, no goroutine leak visible as a hang).
func TestEventsSSEClientCancel(t *testing.T) {
	s, ts, sr := newTestServer(t, Config{Workers: 1})
	_, v := postJob(t, ts, Request{Experiment: "block"})

	req, _ := http.NewRequest("GET", ts.URL+"/jobs/"+v.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the initial state event, then hang up mid-job.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(sr.release)
	j, _ := s.Job(v.ID)
	waitTerminal(t, j)
}

// TestListDeterministicOrder: GET /jobs returns jobs sorted by
// submission time (ID tiebreak), and identical calls return identical
// bodies.
func TestListDeterministicOrder(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{QueueCapacity: 16})
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(Request{Experiment: "echo", Params: ParamSpec{Seed: int64(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range s.Jobs() {
		waitTerminal(t, j)
	}
	var first []View
	getJSON(t, ts.URL+"/jobs", &first)
	if len(first) != 6 {
		t.Fatalf("listed %d jobs, want 6", len(first))
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if b.SubmittedAt.Before(a.SubmittedAt) || (b.SubmittedAt.Equal(a.SubmittedAt) && b.ID < a.ID) {
			t.Errorf("listing out of order at %d: %s(%v) before %s(%v)", i, a.ID, a.SubmittedAt, b.ID, b.SubmittedAt)
		}
	}
	var second []View
	getJSON(t, ts.URL+"/jobs", &second)
	for i := range first {
		if first[i].ID != second[i].ID {
			t.Errorf("listing order changed between calls: %s vs %s at %d", first[i].ID, second[i].ID, i)
		}
	}
}

// TestHealthzQueueDepth: /healthz carries the load signal the cluster
// coordinator balances on.
func TestHealthzQueueDepth(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{QueueCapacity: 7})
	var hb HealthBody
	resp := getJSON(t, ts.URL+"/healthz", &hb)
	if hb.Status != "ok" || hb.QueueCapacity != 7 {
		t.Errorf("healthz = %+v", hb)
	}
	if resp.Header.Get(queueDepthHeader) == "" {
		t.Errorf("no %s header on /healthz", queueDepthHeader)
	}
}

// TestRetryAfterJitter: the backpressure hint stays within [1,3] and
// actually varies, so rejected clients desynchronize.
func TestRetryAfterJitter(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := retryAfterSecs()
		if v < 1 || v > 3 {
			t.Fatalf("retryAfterSecs() = %d, want 1..3", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Errorf("no jitter: every hint was identical")
	}
}

// TestEventsCancelStorm: many subscribers across running and queued
// jobs all hang up mid-job. Every handler must unwind — no job keeps a
// watcher, and the goroutine count returns to where it was before the
// first subscription.
func TestEventsCancelStorm(t *testing.T) {
	s, ts, sr := newTestServer(t, Config{Workers: 2, QueueCapacity: 8})
	var jobs []*Job
	for i := 0; i < 4; i++ { // two run (and park), two stay queued
		_, v := postJob(t, ts, Request{Experiment: "block", Params: ParamSpec{Seed: int64(i + 1)}})
		j, ok := s.Job(v.ID)
		if !ok {
			t.Fatalf("job %s not tracked", v.ID)
		}
		jobs = append(jobs, j)
	}
	watchers := func() int {
		n := 0
		for _, j := range jobs {
			j.mu.Lock()
			n += len(j.watchers)
			j.mu.Unlock()
		}
		return n
	}
	baseline := runtime.NumGoroutine()

	const clients = 32
	tr := &http.Transport{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bodies := make([]io.Closer, clients)
	for i := range bodies {
		req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/jobs/"+jobs[i%len(jobs)].ID()+"/events", nil)
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resp.Body.Read(make([]byte, 1)); err != nil { // the initial state event: the handler is subscribed
			t.Fatal(err)
		}
		bodies[i] = resp.Body
	}
	if got := watchers(); got != clients {
		t.Fatalf("%d watchers subscribed, want %d", got, clients)
	}

	cancel() // the storm: every client gone at once
	for _, b := range bodies {
		b.Close()
	}
	tr.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for watchers() != 0 || runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("after the storm: %d watchers left, %d goroutines (baseline %d)", watchers(), runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(sr.release)
	for _, j := range jobs {
		waitTerminal(t, j)
	}
}
