// Machine-readable run reports. quartzbench -json (and the bench-json
// Makefile target) serializes one Report per invocation so the repo's
// perf trajectory accumulates in version-controlled artifacts
// (BENCH_quartz.json) instead of scrollback: per-experiment wall time
// and simulator events/sec, alongside the parameters that produced
// them.
package experiments

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// ExperimentReport is the machine-readable record of one experiment
// run.
type ExperimentReport struct {
	Name    string `json:"name"`
	Title   string `json:"title"`
	Section string `json:"section"`
	// WallSecs is real time spent inside the experiment's Run.
	WallSecs float64 `json:"wall_secs"`
	// Events is the number of simulator events the experiment drove
	// (its Output.Events; 0 for analytic experiments that never touch
	// the event loop).
	Events uint64 `json:"events"`
	// EventsPerSec is Events over WallSecs.
	EventsPerSec float64 `json:"events_per_sec"`
	// AllocBytes and Mallocs are runtime.MemStats deltas across the
	// experiment — the memory-cost companion to events/sec that the
	// zero-allocation hot-path work keeps honest.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Mallocs    uint64 `json:"mallocs,omitempty"`
	// Tables counts the experiment's exported tables (Output.Tables).
	Tables int `json:"csv_tables,omitempty"`
}

// MemStats summarizes the run's memory behaviour, from
// runtime.ReadMemStats.
type MemStats struct {
	// TotalAllocBytes is cumulative bytes allocated on the heap.
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	// Mallocs is the cumulative count of heap objects allocated.
	Mallocs uint64 `json:"mallocs"`
	// PeakHeapBytes is the largest live heap observed at an experiment
	// boundary.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// NumGC is the number of completed GC cycles.
	NumGC uint32 `json:"num_gc"`
}

// CaptureMemStats snapshots the runtime allocator counters.
// PeakHeapBytes holds the current live heap; callers fold successive
// snapshots' maxima into the run-level peak.
func CaptureMemStats() MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return MemStats{
		TotalAllocBytes: m.TotalAlloc,
		Mallocs:         m.Mallocs,
		PeakHeapBytes:   m.HeapAlloc,
		NumGC:           m.NumGC,
	}
}

// Report is the full run report quartzbench -json emits.
type Report struct {
	// Schema names the report format for downstream tooling.
	Schema string `json:"schema"`
	// StartedAt is the wall-clock start of the run (RFC 3339).
	StartedAt string `json:"started_at"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU and GoMaxProcs record the host parallelism the run had:
	// the cell worker pool of the grid-shaped experiments scales with it.
	NumCPU     int    `json:"num_cpu,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`
	Params     Params `json:"params"`
	// WallSecs is total wall time across the selected experiments.
	WallSecs    float64            `json:"wall_secs"`
	Experiments []ExperimentReport `json:"experiments"`
	// Mem is the run-wide memory summary (nil in reports from versions
	// that predate it; the field is additive to the v1 schema).
	Mem *MemStats `json:"mem,omitempty"`
}

// ReportSchema identifies the current report format.
const ReportSchema = "quartz-bench-report/v1"

// NewReport returns a Report shell stamped with the build environment;
// the caller appends ExperimentReports as experiments finish.
func NewReport(p Params, startedAt time.Time) *Report {
	return &Report{
		Schema:     ReportSchema,
		StartedAt:  startedAt.UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Params:     p.WithDefaults(),
	}
}

// Add appends one experiment's record and folds its wall time into the
// run total.
func (r *Report) Add(er ExperimentReport) {
	if er.WallSecs > 0 {
		er.EventsPerSec = float64(er.Events) / er.WallSecs
	}
	r.WallSecs += er.WallSecs
	r.Experiments = append(r.Experiments, er)
}

// WriteJSON serializes the report, indented for diff-friendly
// version-controlled artifacts.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
