package service

// The HTTP JSON surface of the job subsystem — cmd/quartzd mounts
// this. Routes:
//
//	POST   /jobs            submit (202; 200 on cache hit; 429 full; 503 draining)
//	GET    /jobs            list jobs, submission order
//	GET    /jobs/{id}       job state + progress
//	GET    /jobs/{id}/result  output of a terminal job (409 until then)
//	GET    /jobs/{id}/trace   execution trace, Chrome trace-event JSON
//	GET    /jobs/{id}/events  Server-Sent Events: per-cell progress + state
//	DELETE /jobs/{id}       cancel
//	GET    /experiments     the experiments registry
//	GET    /metrics         Prometheus text format
//	GET    /status          JSON status page (meta + metric series)
//	GET    /healthz         liveness
//
// POST /jobs accepts three request shapes: the job envelope
// ({"experiment": ..., "params": ...}), the envelope carrying an
// inline scenario ({"scenario": {...}}), or — as a convenience for
// `curl -d @file.json` — a raw scenario document, recognized by its
// required "schema": "quartz-scenario/v1" field. A scenario that
// parameterizes a registry experiment shares that experiment's cache
// key, so identical submissions coalesce regardless of shape.
//
// Every job carries an execution trace: POST /jobs reads an optional
// X-Quartz-Trace header naming it (default: the job ID), job responses
// echo the header back, and GET /jobs/{id}/trace serves the spans —
// job lifecycle down to experiment cells and flows — as Chrome
// trace-event JSON loadable in Perfetto. The trace of a running job is
// whatever has been recorded so far.
//
// Backpressure is visible at the protocol level: a full queue answers
// 429 Too Many Requests with a jittered Retry-After and the live queue
// depth (X-Quartz-Queue-Depth, also on /healthz), a draining daemon
// 503 Service Unavailable. Handlers only read service state through
// the public accessors, so they are safe alongside the worker pool.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/quartz-dcn/quartz/internal/metrics"
	"github.com/quartz-dcn/quartz/internal/scenario"
)

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error string `json:"error"`
}

// resultBody is the GET /jobs/{id}/result response.
type resultBody struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Text is the experiment's rendered output.
	Text string `json:"text,omitempty"`
	// CSVTables lists the names of the tables the experiment exported,
	// sorted (quartzsim -csv writes them; the API serves text).
	CSVTables []string `json:"csv_tables,omitempty"`
	Error     string   `json:"error,omitempty"`
}

// experimentBody is one GET /experiments entry.
type experimentBody struct {
	Name    string `json:"name"`
	Section string `json:"section"`
	Title   string `json:"title"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// Handler returns the daemon mux. meta is shown on /status (may be
// nil).
func (s *Service) Handler(meta metrics.StatusMeta) http.Handler {
	mux := http.NewServeMux()
	metricsMux := metrics.Handler(s.reg, meta)
	mux.Handle("/metrics", metricsMux)
	mux.Handle("/status", metricsMux)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /experiments", s.handleExperiments)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	return mux
}

func (s *Service) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	var out []experimentBody
	for _, e := range s.Experiments() {
		out = append(out, experimentBody{Name: e.Name, Section: e.Section, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

// maxBodyBytes bounds a request body read (scenario documents and job
// envelopes are small; a megabyte is generous).
const maxBodyBytes = 1 << 20

// readBody reads a request body of at most maxBodyBytes. A longer one is
// refused whole with 413 — never cut and parsed — and ok is false once
// an error has been answered.
func readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{Error: fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit)})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading request body: " + err.Error()})
	}
	return body, err == nil
}

// parseSubmitBody turns a POST /jobs body into a Request, accepting
// both the job envelope and a raw scenario document (recognized by its
// top-level "schema" field). Both are JSON objects; anything else gets
// the scenario decoder's one-line answer rather than a syntax error at
// offset 0.
func parseSubmitBody(body []byte) (Request, error) {
	if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) > 0 && trimmed[0] != '{' {
		return Request{}, scenario.ErrNotJSON
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(body, &probe); err == nil && probe.Schema != "" {
		return Request{Scenario: body}, nil
	}
	// Strict, like the scenario format: a field the envelope does not
	// have (a typo, a removed parameter) is an error, not a silent
	// default.
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, err
	}
	if _, ok := scenario.TrailingData(dec, body); ok {
		return Request{}, errors.New("trailing data after the job envelope")
	}
	return req, nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := parseSubmitBody(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if tid := r.Header.Get(traceHeader); tid != "" {
		req.TraceID = tid
	}
	job, err := s.Submit(req)
	switch {
	case err == nil:
	case errors.Is(err, ErrUnknownExperiment):
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrBadScenario), errors.Is(err, ErrBadRange), errors.Is(err, ErrBadTimeout):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrQueueFull):
		// Backpressure: tell the client when to come back, with jitter
		// so a herd of rejected clients (or cluster dispatchers) does
		// not retry in lockstep. One second is a deliberate floor —
		// smoke-scale jobs finish in less. The live queue depth rides
		// along so callers can load-balance instead of blindly retrying.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs()))
		w.Header().Set(queueDepthHeader, strconv.Itoa(s.QueueDepth()))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "60")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	// 200 only for a cache hit. The job's state at this instant says
	// nothing: an instant job may already have run to completion, and
	// its first submission is still a 202.
	code := http.StatusAccepted
	if job.CacheHit() {
		code = http.StatusOK
	}
	w.Header().Set(traceHeader, job.TraceID())
	writeJSON(w, code, job.Snapshot(time.Now()))
}

// traceHeader carries a client-chosen trace ID on POST /jobs and comes
// back on job responses, so a client can correlate its own request
// with the exported trace.
const traceHeader = "X-Quartz-Trace"

// handleTrace serves the job's execution trace as Chrome trace-event
// JSON (Perfetto-loadable). Works at any lifecycle point: a running
// job yields the spans recorded so far, a cache-hit job only its
// lifecycle spans.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	w.Header().Set(traceHeader, j.TraceID())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = j.Trace().WriteChrome(w, map[string]string{
		"job":        j.ID(),
		"trace_id":   j.TraceID(),
		"experiment": j.name,
		"state":      j.State().String(),
	})
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	jobs := s.Jobs()
	out := make([]View, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Snapshot(now))
	}
	// Deterministic listing order: submission time, job ID as the
	// tiebreak (IDs are monotonic, so same-timestamp submissions still
	// list in admission order). Identical GET /jobs calls must return
	// identical bodies — clients diff them.
	sort.SliceStable(out, func(a, b int) bool {
		if !out[a].SubmittedAt.Equal(out[b].SubmittedAt) {
			return out[a].SubmittedAt.Before(out[b].SubmittedAt)
		}
		return out[a].ID < out[b].ID
	})
	writeJSON(w, http.StatusOK, out)
}

// queueDepthHeader carries the live submission-queue depth on 429
// responses and /healthz, the coordinator's load-balancing signal.
const queueDepthHeader = "X-Quartz-Queue-Depth"

// retryAfterSecs returns the 429 Retry-After hint: a 1-second floor
// plus up to 2 seconds of jitter, so synchronized clients desynchronize
// instead of stampeding the queue on the same tick.
func retryAfterSecs() int { return 1 + rand.Intn(3) }

// HealthBody is the GET /healthz response: liveness plus the queue
// load signal (see the Retry-After jitter note on handleSubmit — the
// depth lets clients and the cluster coordinator balance on
// backpressure rather than probe it).
type HealthBody struct {
	Status        string `json:"status"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	depth := s.QueueDepth()
	w.Header().Set(queueDepthHeader, strconv.Itoa(depth))
	writeJSON(w, http.StatusOK, HealthBody{
		Status:        "ok",
		QueueDepth:    depth,
		QueueCapacity: s.QueueCapacity(),
	})
}

// handleEvents streams job lifecycle and per-cell progress as
// Server-Sent Events: an initial "state" event, a "progress" event per
// observed done/total change, a "state" event per transition, and
// stream close once the job is terminal. A cluster job aggregates its
// workers' per-cell callbacks into the same stream, so one SSE
// subscription watches a whole fan-out.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.Header().Set(traceHeader, j.TraceID())
	w.WriteHeader(http.StatusOK)

	ch := j.watch() // pre-poked: first loop iteration emits current state
	defer j.unwatch(ch)
	lastState := State(255)
	lastDone, lastTotal := -1, -1
	emit := func(event string, v interface{}) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ch:
		}
		v := j.Snapshot(time.Now())
		if v.Progress != nil && (v.Progress.Done != lastDone || v.Progress.Total != lastTotal) {
			lastDone, lastTotal = v.Progress.Done, v.Progress.Total
			emit("progress", v.Progress)
		}
		if v.State != lastState {
			lastState = v.State
			emit("state", map[string]interface{}{"id": v.ID, "state": v.State, "error": v.Error})
		}
		fl.Flush()
		if v.State.Terminal() {
			return
		}
	}
}

// jobOr404 resolves {id} or writes the 404.
func (s *Service) jobOr404(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: ErrUnknownJob.Error() + ": " + id})
		return nil, false
	}
	return j, true
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobOr404(w, r); ok {
		writeJSON(w, http.StatusOK, j.Snapshot(time.Now()))
	}
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	state := j.State()
	if !state.Terminal() {
		writeJSON(w, http.StatusConflict, errorBody{
			Error: "job " + j.ID() + " is " + state.String() + "; result not ready",
		})
		return
	}
	out, errMsg := j.Output()
	body := resultBody{ID: j.ID(), State: state, Text: out.Text, Error: errMsg}
	for _, t := range out.Tables {
		body.CSVTables = append(body.CSVTables, t.Name)
	}
	sort.Strings(body.CSVTables)
	writeJSON(w, http.StatusOK, body)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, err := s.Cancel(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot(time.Now()))
}
