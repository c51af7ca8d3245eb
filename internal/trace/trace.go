// Package trace is the execution-tracing layer of the simulator: a
// low-overhead span recorder capturing dual-clock spans — virtual
// simulation time and wall time side by side — with a bounded
// flight-recorder mode for long runs and a Chrome trace-event JSON
// exporter loadable in Perfetto or chrome://tracing.
//
// The package depends only on the standard library so every layer of
// the tree (the network simulator, the experiment runners, the job
// service, the cluster coordinator) can record into the same Recorder
// without import cycles.
//
// Clock model. Every span carries two clocks:
//
//   - the virtual clock (Virt, VirtEnd): simulation time in engine
//     ticks (picoseconds in this repo). Virtual fields are a pure
//     function of the simulated workload, so they are byte-identical
//     across machines.
//   - the wall clock (Wall, WallDur): nanoseconds since the recorder's
//     epoch. Wall fields are the performance instrument — where the
//     run actually spent its time — and are excluded from every
//     determinism comparison.
//
// Overhead. A nil *Recorder is a valid disabled recorder: every method
// is nil-safe, so instrumented code holds a possibly-nil pointer and
// pays one branch when tracing is off. Recording a span takes one
// mutex acquisition and one slice store; nothing in this package runs
// per simulation event.
package trace

import (
	"fmt"
	"sync"
	"time"
)

// Arg is one integer span annotation. Spans carry a small fixed array
// of these instead of a map so recording never allocates per span.
type Arg struct {
	Key string
	Val int64
}

// maxArgs bounds the per-span annotation count.
const maxArgs = 6

// Span is one recorded interval (or instant, when both durations are
// zero) on a named track.
type Span struct {
	// Name labels the span ("flow", "cell", "dispatch", ...).
	Name string
	// Cat groups spans into a Perfetto process ("net", "experiment",
	// "job", "cluster"). Determinism comparisons can filter by it.
	Cat string
	// Track is the Perfetto thread within the category: the flow ID for
	// flow spans, the cell index for experiment spans, the range start
	// for cluster cell-range spans. CoordinatorTrack marks the cluster
	// coordinator itself.
	Track int
	// Virt and VirtEnd bound the span on the virtual clock, in engine
	// ticks. Both zero for wall-only spans (setup, job lifecycle).
	Virt, VirtEnd int64
	// Wall is the span's start on the wall clock, nanoseconds since the
	// recorder epoch; WallDur its wall duration. Both zero for
	// virtual-only spans derived after the fact (flow spans).
	Wall, WallDur int64
	// NArgs is the number of valid entries in Args.
	NArgs int
	Args  [maxArgs]Arg
}

// CoordinatorTrack is the Track value for spans recorded by a
// coordinator rather than one of its workers.
const CoordinatorTrack = -1

// Annotate appends an annotation in place (dropped when full) and
// returns the span for chaining.
func (s Span) Annotate(key string, val int64) Span {
	if s.NArgs < maxArgs {
		s.Args[s.NArgs] = Arg{Key: key, Val: val}
		s.NArgs++
	}
	return s
}

// Recorder accumulates spans. Create one with NewRecorder (unbounded)
// or NewFlightRecorder (bounded ring that overwrites the oldest span —
// the "what were the last N spans doing" black box for long runs).
// A nil *Recorder is the disabled recorder: every method is safe to
// call and does nothing. Recorders are safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []Span
	limit   int // > 0: flight-recorder ring capacity
	next    int // ring write cursor when limit > 0
	wrapped bool
	dropped uint64

	trackNames map[trackID]string
}

// trackID keys the track display names: one Perfetto thread.
type trackID struct {
	cat   string
	track int
}

// NewRecorder returns an unbounded recorder with its wall epoch at now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// NewFlightRecorder returns a recorder bounded to the most recent
// capacity spans: when full, each Add overwrites the oldest span and
// Dropped counts the overwritten. capacity must be positive.
func NewFlightRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: flight recorder capacity must be positive, got %d", capacity))
	}
	return &Recorder{epoch: time.Now(), limit: capacity}
}

// Enabled reports whether the recorder records (false on nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Since converts a wall instant to a span Wall offset (ns since epoch).
func (r *Recorder) Since(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return t.Sub(r.epoch).Nanoseconds()
}

// Add records one span. Nil-safe; in flight-recorder mode a full ring
// overwrites its oldest span.
func (r *Recorder) Add(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.limit > 0 {
		if len(r.spans) < r.limit {
			r.spans = append(r.spans, s)
		} else {
			r.spans[r.next] = s
			r.dropped++
			r.wrapped = true
		}
		r.next++
		if r.next == r.limit {
			r.next = 0
		}
	} else {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// NameTrack sets the display name of (cat, track) for the Chrome
// export's thread_name metadata. Nil-safe.
func (r *Recorder) NameTrack(cat string, track int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.trackNames == nil {
		r.trackNames = make(map[trackID]string)
	}
	r.trackNames[trackID{cat, track}] = name
	r.mu.Unlock()
}

// Len returns the number of spans held (post-overwrite in flight mode).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Dropped returns how many spans the flight ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Spans returns a copy of the held spans in record order (oldest first,
// unwrapping the flight ring). Nil-safe.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spansLocked()
}

func (r *Recorder) spansLocked() []Span {
	if r.limit > 0 && r.wrapped {
		out := make([]Span, 0, len(r.spans))
		out = append(out, r.spans[r.next:]...)
		out = append(out, r.spans[:r.next]...)
		return out
	}
	return append([]Span(nil), r.spans...)
}

// contentLess is a total order on spans by virtual-clock content:
// every field except the wall clock. Spans that compare equal are
// identical rows, so the sorted order is independent of record order.
func contentLess(a, b Span) bool {
	if a.Virt != b.Virt {
		return a.Virt < b.Virt
	}
	if a.VirtEnd != b.VirtEnd {
		return a.VirtEnd < b.VirtEnd
	}
	if a.Cat != b.Cat {
		return a.Cat < b.Cat
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Track != b.Track {
		return a.Track < b.Track
	}
	if a.NArgs != b.NArgs {
		return a.NArgs < b.NArgs
	}
	for i := 0; i < a.NArgs; i++ {
		if a.Args[i].Key != b.Args[i].Key {
			return a.Args[i].Key < b.Args[i].Key
		}
		if a.Args[i].Val != b.Args[i].Val {
			return a.Args[i].Val < b.Args[i].Val
		}
	}
	return false
}
