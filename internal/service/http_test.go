package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server, *stubRegistry) {
	t.Helper()
	sr := newStubRegistry()
	if cfg.Lookup == nil {
		cfg.Lookup = sr.lookup
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler(nil))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts, sr
}

func postJob(t *testing.T, ts *httptest.Server, req Request) (*http.Response, View) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, v
}

func getJSON(t *testing.T, url string, into interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestHTTPSubmitPollResult(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{QueueCapacity: 4, Workers: 1})

	resp, v := postJob(t, ts, Request{Experiment: "echo", Params: ParamSpec{Seed: 11}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if v.ID == "" || v.Experiment != "echo" {
		t.Fatalf("submit view = %+v", v)
	}

	// Poll until terminal.
	deadline := time.Now().Add(10 * time.Second)
	var cur View
	for {
		getJSON(t, ts.URL+"/jobs/"+v.ID, &cur)
		if cur.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cur.State != StateDone {
		t.Fatalf("state = %v (%s)", cur.State, cur.Error)
	}

	var res resultBody
	getJSON(t, ts.URL+"/jobs/"+v.ID+"/result", &res)
	if res.Text != "seed=11" || res.State != StateDone {
		t.Fatalf("result = %+v", res)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	// Queue capacity N; with the single worker wedged, N fills succeed
	// and submission N+1 answers 429 with Retry-After.
	const capN = 2
	s, ts, sr := newTestServer(t, Config{QueueCapacity: capN, Workers: 1})
	defer close(sr.release)

	resp, _ := postJob(t, ts, Request{Experiment: "block", Params: ParamSpec{Seed: 1}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	select {
	case <-sr.started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the blocking job")
	}
	for i := 0; i < capN; i++ {
		resp, _ := postJob(t, ts, Request{Experiment: "block", Params: ParamSpec{Seed: int64(10 + i)}})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d = %d", i, resp.StatusCode)
		}
	}
	resp, _ = postJob(t, ts, Request{Experiment: "block", Params: ParamSpec{Seed: 99}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	_ = s
}

// TestHTTPCacheHit200 pins what the submit status means: 202 for a job
// this submission created (even an instant one that has already
// finished by the time the handler answers — hence the loop, which
// under -race loses that race in most runs when the status is read
// off the job's state), 200 only when the result came from the cache.
func TestHTTPCacheHit200(t *testing.T) {
	s, ts, sr := newTestServer(t, Config{QueueCapacity: 4, Workers: 2})

	const submissions = 300
	for seed := int64(1); seed <= submissions; seed++ {
		req := Request{Experiment: "echo", Params: ParamSpec{Seed: seed}}
		resp, v := postJob(t, ts, req)
		if resp.StatusCode != http.StatusAccepted || v.CacheHit {
			t.Fatalf("seed %d: first submit = %d cache_hit=%v, want 202 without a cache hit", seed, resp.StatusCode, v.CacheHit)
		}
		waitDone(t, s, v.ID)
		if seed > 1 {
			continue
		}
		resp, hit := postJob(t, ts, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cache-hit submit = %d, want 200", resp.StatusCode)
		}
		if !hit.CacheHit || hit.State != StateDone {
			t.Fatalf("cache-hit view = %+v", hit)
		}
	}
	if sr.runs.Load() != submissions {
		t.Errorf("cache hit executed the experiment: runs = %d, want %d", sr.runs.Load(), submissions)
	}
}

func TestHTTPErrorsAndAuxRoutes(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{QueueCapacity: 2, Workers: 1})

	// Unknown experiment → 404.
	resp, _ := postJob(t, ts, Request{Experiment: "no-such-thing"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown experiment = %d, want 404", resp.StatusCode)
	}
	// Malformed body → 400.
	r2, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", r2.StatusCode)
	}
	// A field the envelope does not have → 400, not a silent default:
	// params.shards went with the multi-shard engine (DESIGN.md §11).
	for _, body := range []string{
		`{"experiment":"echo","params":{"shards":2}}`,
		`{"experiment":"echo","parms":{"seed":1}}`,
	} {
		r, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", body, r.StatusCode)
		}
	}
	// A body over the 1 MiB cap → 413 naming the limit — not a document
	// cut at the cap and answered with "400 unexpected end of JSON input".
	big := `{"schema":"quartz-scenario/v1","name":"big","title":"` + strings.Repeat("x", maxBodyBytes) +
		`","experiment":{"name":"fig6"}}`
	r3, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var msg errorBody
	json.NewDecoder(r3.Body).Decode(&msg)
	r3.Body.Close()
	if r3.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(msg.Error, "1048576-byte limit") {
		t.Errorf("oversize POST /jobs = %d %q, want 413 naming the limit", r3.StatusCode, msg.Error)
	}
	// Scenarios are POSTed to /jobs; there is no /scenarios route.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/scenarios/x", strings.NewReader(`{}`))
	r4, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusNotFound && r4.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /scenarios/x = %d, want 404 or 405", r4.StatusCode)
	}
	// Unknown job → 404; result of a fresh job → 409 until terminal.
	if resp := getJSON(t, ts.URL+"/jobs/j-404404", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
	// Health + experiments listing (real registry names via Experiments()).
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	var exps []experimentBody
	getJSON(t, ts.URL+"/experiments", &exps)
	if len(exps) == 0 {
		t.Error("experiments listing is empty")
	}
	// Metrics endpoint serves Prometheus text including service series.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(buf.Bytes(), []byte("quartzd_queue_capacity")) {
		t.Errorf("metrics output missing quartzd series:\n%.400s", buf.String())
	}
}

func TestHTTPCancelAndList(t *testing.T) {
	_, ts, sr := newTestServer(t, Config{QueueCapacity: 4, Workers: 1})
	defer close(sr.release)

	_, running := postJob(t, ts, Request{Experiment: "block", Params: ParamSpec{Seed: 1}})
	select {
	case <-sr.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	_, queued := postJob(t, ts, Request{Experiment: "block", Params: ParamSpec{Seed: 2}})

	// Result before terminal → 409.
	if resp := getJSON(t, ts.URL+"/jobs/"+running.ID+"/result", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("premature result = %d, want 409", resp.StatusCode)
	}

	// DELETE cancels the queued job.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued.ID, nil)
	dresp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled View
	if err := json.NewDecoder(dresp.Body).Decode(&cancelled); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if cancelled.State != StateCancelled {
		t.Errorf("cancelled view state = %v", cancelled.State)
	}

	var all []View
	getJSON(t, ts.URL+"/jobs", &all)
	if len(all) != 2 {
		t.Fatalf("job list has %d entries, want 2", len(all))
	}
	for i, want := range []string{running.ID, queued.ID} {
		if all[i].ID != want {
			t.Errorf("list[%d] = %s, want %s (submission order)", i, all[i].ID, want)
		}
	}
}

func TestHTTPDraining503(t *testing.T) {
	s, ts, sr := newTestServer(t, Config{QueueCapacity: 4, Workers: 1})

	_, _ = postJob(t, ts, Request{Experiment: "block", Params: ParamSpec{Seed: 1}})
	select {
	case <-sr.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(context.Background()) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := postJob(t, ts, Request{Experiment: "echo", Params: ParamSpec{Seed: 2}})
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 missing Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submission during drain = %d, want 503", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}
	close(sr.release)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// parseSubmitBody follows the scenario decoder's trailing-data rule:
// only whitespace may follow the envelope, whatever the bytes after it.
func TestSubmitBodyTrailingData(t *testing.T) {
	const envelope = `{"experiment":"fig5","params":{"seed":3}}`
	for _, tc := range []struct {
		name, tail string
		ok         bool
	}{
		{"nothing", "", true},
		{"whitespace", " \r\n\t\n", true},
		{"another envelope", `{"experiment":"fig6"}`, false},
		{"a word", " x", false},
		{"a stray brace", "}", false},
		{"a stray bracket", "]", false},
		{"a comma", "\n,", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := parseSubmitBody([]byte(envelope + tc.tail))
			switch {
			case tc.ok && err != nil:
				t.Fatalf("envelope followed by %q: %v", tc.tail, err)
			case tc.ok && (req.Experiment != "fig5" || req.Params.Seed != 3):
				t.Fatalf("envelope followed by %q parsed as %+v", tc.tail, req)
			case !tc.ok && (err == nil || !strings.Contains(err.Error(), "trailing data")):
				t.Fatalf("envelope followed by %q: error %v, want trailing data", tc.tail, err)
			}
		})
	}
}
