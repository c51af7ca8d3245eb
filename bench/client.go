package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// qdClient is one closed-loop quartzd caller: a single keep-alive
// connection, every request waited for before the next is sent.
type qdClient struct {
	base  string
	hc    *http.Client
	tr    *tracer
	track int
}

func newQDClient(base string, tr *tracer, track int) *qdClient {
	return &qdClient{
		base:  base,
		hc:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		tr:    tr,
		track: track,
	}
}

func (c *qdClient) close() { c.hc.CloseIdleConnections() }

// jobView and jobResult are the fields of quartzd's job and result
// bodies the benchmark reads.
type jobView struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit"`
}

type jobResult struct {
	State string `json:"state"`
	Text  string `json:"text"`
	Error string `json:"error"`
}

// do issues one request under a span and returns the status and body.
func (c *qdClient) do(spanName string, parent int, method, path string, body []byte) (int, []byte, error) {
	sp := c.tr.begin(spanName, parent, c.tr.opOf(parent), c.track)
	defer c.tr.finish(sp)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return resp.StatusCode, raw, nil
}

// submit POSTs a job body. A refusal (429/503) or any other non-2xx
// answer is an error: the workloads are sized so that none occurs.
func (c *qdClient) submit(parent int, body []byte) (int, jobView, error) {
	status, raw, err := c.do("http:POST /jobs", parent, http.MethodPost, "/jobs", body)
	if err != nil {
		return 0, jobView{}, err
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return status, jobView{}, fmt.Errorf("POST /jobs: HTTP %d: %s", status, bytes.TrimSpace(raw))
	}
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil {
		return status, jobView{}, fmt.Errorf("POST /jobs: decoding view: %w", err)
	}
	return status, v, nil
}

// awaitEvents reads the job's SSE stream until the server closes it,
// which it does once the job is terminal.
func (c *qdClient) awaitEvents(parent int, id string) error {
	status, _, err := c.do("http:GET events", parent, http.MethodGet, "/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET events: HTTP %d", status)
	}
	return nil
}

// result fetches a terminal job's output and the size of the body that
// carried it.
func (c *qdClient) result(parent int, id string) (jobResult, int, error) {
	status, raw, err := c.do("http:GET result", parent, http.MethodGet, "/jobs/"+id+"/result", nil)
	if err != nil {
		return jobResult{}, 0, err
	}
	if status != http.StatusOK {
		return jobResult{}, 0, fmt.Errorf("GET result: HTTP %d: %s", status, bytes.TrimSpace(raw))
	}
	var r jobResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return jobResult{}, 0, fmt.Errorf("GET result: decoding: %w", err)
	}
	if r.State != "done" {
		return r, len(raw), fmt.Errorf("job %s ended %s: %s", id, r.State, r.Error)
	}
	return r, len(raw), nil
}

// runJob is the full submit → wait → fetch path of a job that has to
// execute. The event stream is always opened, even when a very short
// job is already terminal by the time POST answers, so every such op
// makes the same three requests.
func (c *qdClient) runJob(parent int, body []byte) (jobResult, int, error) {
	_, v, err := c.submit(parent, body)
	if err != nil {
		return jobResult{}, 0, err
	}
	if err := c.awaitEvents(parent, v.ID); err != nil {
		return jobResult{}, 0, err
	}
	return c.result(parent, v.ID)
}

func get(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
