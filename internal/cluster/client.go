package cluster

// The coordinator's client side of the worker protocol: plain quartzd
// HTTP JSON calls (the worker runs no cluster code). Every call but
// the event stream gets its own deadline from requestTimeout
// layered under the caller's context.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/service"
)

// resultView mirrors the worker's GET /jobs/{id}/result body (the
// service keeps its response type unexported; the fields are the wire
// contract).
type resultView struct {
	ID    string        `json:"id"`
	State service.State `json:"state"`
	Text  string        `json:"text,omitempty"`
	Error string        `json:"error,omitempty"`
}

// paramSpec strips hooks off runner parameters for the wire.
func paramSpec(p experiments.Params) service.ParamSpec {
	return service.ParamSpec{Seed: p.Seed, Trials: p.Trials, Tasks: p.Tasks, RPCs: p.RPCs}
}

// doJSON issues one request and decodes a 2xx body into out (skipped
// when out is nil). Non-2xx responses come back as (status, nil error)
// with the server's error string in errMsg so callers can map status
// codes to the retry taxonomy.
func (c *Coordinator) doJSON(ctx context.Context, method, url string, body interface{}, out interface{}) (status int, retryAfter time.Duration, errMsg string, err error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		enc, merr := json.Marshal(body)
		if merr != nil {
			return 0, 0, "", merr
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, 0, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, 0, "", err
	}
	defer resp.Body.Close()
	if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return resp.StatusCode, retryAfter, "", err
	}
	if resp.StatusCode >= 300 {
		var eb struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(raw, &eb)
		if eb.Error == "" {
			eb.Error = fmt.Sprintf("HTTP %d", resp.StatusCode)
		}
		return resp.StatusCode, retryAfter, eb.Error, nil
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, retryAfter, "", fmt.Errorf("decoding %s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, retryAfter, "", nil
}

// submitCells posts one cell-range sub-job to a worker.
func (c *Coordinator) submitCells(ctx context.Context, base, name string, p experiments.Params, r cellRange) (service.View, int, time.Duration, string, error) {
	req := service.Request{
		Experiment: name,
		Params:     paramSpec(p),
		Cells:      &service.CellRange{Lo: r.lo, Hi: r.hi},
	}
	var v service.View
	status, retryAfter, errMsg, err := c.doJSON(ctx, http.MethodPost, base+"/jobs", req, &v)
	return v, status, retryAfter, errMsg, err
}

// followJob waits on a worker job's GET /jobs/{id}/events stream for
// its terminal state and error. No requestTimeout (a range may outlive
// it): the stream dies with ctx or with the worker's heartbeat.
func (c *Coordinator) followJob(ctx context.Context, w *worker, id string, progress func(done int)) (service.State, string, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.mu.Lock()
	live := w.live
	w.mu.Unlock()
	defer context.AfterFunc(live, cancel)()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, "", err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("following job %s: HTTP %d", id, resp.StatusCode)
	}
	return readEvents(resp.Body, progress)
}

const maxEventLine = 1 << 20 // bounds one line of a worker's event stream

// readEvents reads a job's SSE stream to its end: "progress" events go
// to progress, the last "state" event must be terminal and is the answer.
func readEvents(r io.Reader, progress func(done int)) (service.State, string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxEventLine)
	type payload struct { // the fields of both event kinds
		Done  int           `json:"done"`
		State service.State `json:"state"`
		Error string        `json:"error"`
	}
	var event string
	var last payload // zero: queued, not terminal
	for sc.Scan() {
		field, value, _ := bytes.Cut(sc.Bytes(), []byte(":"))
		switch {
		case string(field) == "event":
			event = string(bytes.TrimSpace(value))
		case string(field) == "data" && (event == "progress" || event == "state"):
			var ev payload
			if err := json.Unmarshal(value, &ev); err != nil {
				return 0, "", fmt.Errorf("event stream: %s: %w", event, err)
			}
			if event == "progress" {
				progress(ev.Done)
			} else {
				last = ev
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, "", fmt.Errorf("event stream: %w", err)
	}
	if !last.State.Terminal() {
		return 0, "", errors.New("event stream ended before a terminal state")
	}
	return last.State, last.Error, nil
}

// getResult fetches a terminal worker job's output.
func (c *Coordinator) getResult(ctx context.Context, base, id string) (resultView, error) {
	var rv resultView
	status, _, errMsg, err := c.doJSON(ctx, http.MethodGet, base+"/jobs/"+id+"/result", nil, &rv)
	if err != nil {
		return resultView{}, err
	}
	if status != http.StatusOK {
		return resultView{}, fmt.Errorf("fetching result %s: HTTP %d: %s", id, status, errMsg)
	}
	return rv, nil
}

// cancelJob best-effort cancels a worker job the coordinator no longer
// needs (its own job was cancelled mid-sweep). Detached from the dead
// caller context on purpose.
func (c *Coordinator) cancelJob(base, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	_, _, _, _ = c.doJSON(ctx, http.MethodDelete, base+"/jobs/"+id, nil, nil)
}

// health probes one worker's /healthz.
func (c *Coordinator) health(base string) (service.HealthBody, error) {
	ctx := context.Background()
	var hb service.HealthBody
	status, _, errMsg, err := c.doJSON(ctx, http.MethodGet, base+"/healthz", nil, &hb)
	if err != nil {
		return service.HealthBody{}, err
	}
	if status != http.StatusOK {
		return service.HealthBody{}, fmt.Errorf("healthz: HTTP %d: %s", status, errMsg)
	}
	return hb, nil
}
