package service

// Job lifecycle: one submission's identity, state machine, and
// observable snapshot. Jobs move queued → running → one of
// done/failed/cancelled; cache hits are born done. All mutable state
// is guarded by the job's mutex so HTTP handlers can snapshot a job
// while a worker drives it.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/trace"
)

// State is a job's lifecycle position.
type State uint8

// Job lifecycle states.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCancelled
)

// String returns the lowercase state name used in the JSON API.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s >= StateDone }

// MarshalJSON serializes the state as its lowercase name.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses the lowercase state name.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for st := StateQueued; st <= StateCancelled; st++ {
		if st.String() == name {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("unknown job state %q", name)
}

// ParamSpec is the wire form of experiments.Params: lowercase JSON
// field names, zero values meaning "use the default".
type ParamSpec struct {
	Seed   int64 `json:"seed,omitempty"`
	Trials int   `json:"trials,omitempty"`
	Tasks  int   `json:"tasks,omitempty"`
	RPCs   int   `json:"rpcs,omitempty"`
}

// Params converts the wire form to runner parameters.
func (ps ParamSpec) Params() experiments.Params {
	return experiments.Params{Seed: ps.Seed, Trials: ps.Trials, Tasks: ps.Tasks, RPCs: ps.RPCs}
}

// specOf converts runner parameters back to the wire form.
func specOf(p experiments.Params) ParamSpec {
	return ParamSpec{Seed: p.Seed, Trials: p.Trials, Tasks: p.Tasks, RPCs: p.RPCs}
}

// CellRange selects the contiguous sweep cells [Lo, Hi) of a cell-range
// sub-job.
type CellRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Request is one job submission. Exactly one of Experiment and
// Scenario selects what to run.
type Request struct {
	// Experiment is a registry name (experiments.Find).
	Experiment string `json:"experiment,omitempty"`
	// Scenario is an inline declarative scenario document
	// (internal/scenario, JSON form). POSTing a raw scenario document —
	// anything with "schema": "quartz-scenario/v1" at the top level —
	// to /jobs is shorthand for wrapping it here.
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// Params are the run parameters; zero fields take defaults.
	// Scenario submissions pin their parameters in the document and
	// reject a non-empty Params.
	Params ParamSpec `json:"params"`
	// TimeoutSecs caps the job's run time; 0 takes the service default.
	TimeoutSecs float64 `json:"timeout_secs,omitempty"`
	// NoCache forces execution even when a cached result exists, and
	// keeps the result out of the cache.
	NoCache bool `json:"no_cache,omitempty"`
	// Cells, when non-nil, restricts execution to sweep cells [Lo, Hi)
	// of a registry experiment that publishes a Sweep grid — the
	// sub-job form the cluster coordinator fans out to workers. The
	// result is a partial CellBlock (JSON in the result text), cached
	// under the experiments.CacheKeyRange sub-key so any worker's prior
	// block serves any later client. Only valid with Experiment.
	Cells *CellRange `json:"cells,omitempty"`
	// TraceID names the job's execution trace; it defaults to the job
	// ID. The HTTP layer fills it from the X-Quartz-Trace request
	// header, echoes it on responses, and serves the trace itself at
	// GET /jobs/{id}/trace.
	TraceID string `json:"trace_id,omitempty"`
}

// Job is one tracked submission.
type Job struct {
	id     string
	key    string
	name   string
	params experiments.Params // what the run reads (scenario.Compiled.Params), no hooks
	run    func(ctx context.Context, p experiments.Params) (experiments.Output, error)

	timeout time.Duration
	noCache bool
	traceID string
	// cells is non-nil for cell-range sub-jobs (Request.Cells).
	cells *CellRange
	// rec is the job's flight recorder: lifecycle spans plus whatever
	// the experiment records through Params.Trace, bounded so a
	// long-running job keeps its most recent windows. Set at creation
	// and never reassigned, so handlers may read it while a worker
	// records into it.
	rec *trace.Recorder

	mu          sync.Mutex
	state       State
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	progDone    int
	progTotal   int
	output      experiments.Output
	errMsg      string
	cacheHit    bool
	cancel      context.CancelFunc // non-nil while running
	// watchers are SSE subscribers: 1-buffered poke channels. A poke
	// means "re-snapshot me"; sends never block, and consecutive pokes
	// coalesce — the subscriber reads current state, not an event log.
	watchers map[chan struct{}]struct{}

	done chan struct{} // closed on entering a terminal state
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// TraceID returns the job's trace identifier.
func (j *Job) TraceID() string { return j.traceID }

// Trace returns the job's span recorder. Safe to export at any point
// in the lifecycle; a still-running job yields the spans so far.
func (j *Job) Trace() *trace.Recorder { return j.rec }

// traceSpan records one wall-only lifecycle span on the job's trace.
func (j *Job) traceSpan(name string, start, end time.Time) {
	wall := j.rec.Since(start)
	if wall < 0 {
		// The recorder epoch lands a hair after the submission
		// timestamp; pin the queued span to the epoch.
		wall = 0
	}
	j.rec.Add(trace.Span{
		Name: name, Cat: "job", Track: 0,
		Wall: wall, WallDur: end.Sub(start).Nanoseconds(),
	})
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// CacheHit reports whether the job was served from the result cache.
func (j *Job) CacheHit() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cacheHit
}

// Output returns the experiment output and error message once the job
// is terminal (zero values before then).
func (j *Job) Output() (experiments.Output, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.output, j.errMsg
}

// Wait blocks until the job is terminal or ctx is cancelled.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// setProgress records a progress callback from the experiment.
func (j *Job) setProgress(done, total int) {
	j.mu.Lock()
	j.progDone, j.progTotal = done, total
	j.notifyLocked()
	j.mu.Unlock()
}

// watch subscribes to job updates: the returned channel is poked
// (coalescing, never blocking) on every progress tick and state
// transition. It arrives pre-poked so the subscriber emits the current
// state immediately. Pair with unwatch.
func (j *Job) watch() chan struct{} {
	ch := make(chan struct{}, 1)
	ch <- struct{}{}
	j.mu.Lock()
	if j.watchers == nil {
		j.watchers = make(map[chan struct{}]struct{})
	}
	j.watchers[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

// unwatch removes a watch subscription.
func (j *Job) unwatch(ch chan struct{}) {
	j.mu.Lock()
	delete(j.watchers, ch)
	j.mu.Unlock()
}

// notifyLocked pokes every watcher. Caller holds j.mu.
func (j *Job) notifyLocked() {
	for ch := range j.watchers {
		select {
		case ch <- struct{}{}:
		default: // already poked; the watcher will re-snapshot anyway
		}
	}
}

// finish moves the job to a terminal state exactly once; later calls
// are no-ops (a job cancelled while queued stays cancelled even after
// the worker drains it). Returns the state that was recorded.
func (j *Job) finish(state State, out experiments.Output, errMsg string, at time.Time) State {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return j.state
	}
	j.state = state
	j.output = out
	j.errMsg = errMsg
	j.finishedAt = at
	j.cancel = nil
	j.notifyLocked()
	close(j.done)
	return state
}

// ProgressView is the progress block of a job snapshot.
type ProgressView struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// View is a job frozen for serialization.
type View struct {
	ID         string    `json:"id"`
	Experiment string    `json:"experiment"`
	Key        string    `json:"key"`
	Params     ParamSpec `json:"params"`
	State      State     `json:"state"`
	CacheHit   bool      `json:"cache_hit,omitempty"`
	TraceID    string    `json:"trace_id,omitempty"`
	// Cells marks a cell-range sub-job (the cluster fan-out unit).
	Cells *CellRange `json:"cells,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// QueueSecs is time spent queued; RunSecs time spent executing.
	// Both keep counting while the job is in the respective phase.
	QueueSecs float64 `json:"queue_secs"`
	RunSecs   float64 `json:"run_secs,omitempty"`

	Progress *ProgressView `json:"progress,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// Snapshot freezes the job at now for serialization.
func (j *Job) Snapshot(now time.Time) View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:          j.id,
		Experiment:  j.name,
		Key:         j.key,
		Params:      specOf(j.params),
		State:       j.state,
		CacheHit:    j.cacheHit,
		TraceID:     j.traceID,
		SubmittedAt: j.submittedAt,
		Error:       j.errMsg,
	}
	if j.cells != nil {
		c := *j.cells
		v.Cells = &c
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		v.StartedAt = &t
		v.QueueSecs = j.startedAt.Sub(j.submittedAt).Seconds()
	} else if j.state == StateQueued {
		v.QueueSecs = now.Sub(j.submittedAt).Seconds()
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		v.FinishedAt = &t
		if !j.startedAt.IsZero() {
			v.RunSecs = j.finishedAt.Sub(j.startedAt).Seconds()
		}
	} else if j.state == StateRunning {
		v.RunSecs = now.Sub(j.startedAt).Seconds()
	}
	if j.progTotal > 0 {
		v.Progress = &ProgressView{Done: j.progDone, Total: j.progTotal}
	}
	return v
}
