package main

import (
	"io"
	"sort"
	"sync"
	"time"

	"github.com/quartz-dcn/quartz/internal/trace"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation (a pass, a quartzd op, a sweep) share op; parent is the
// span that caused this one (0 = root).
type span struct {
	id, parent, op int
	name           string
	track          int
	start, end     time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the disabled tracer: begin returns 0 and finish does nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 when disabled). op 0 means
// "a new operation": the span's own id becomes the shared op id.
func (t *tracer) begin(name string, parent, op, track int) int {
	if t == nil {
		return 0
	}
	at := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans) + 1
	if op == 0 {
		op = id
	}
	t.spans = append(t.spans, span{id: id, parent: parent, op: op, name: name, track: track, start: at, end: -1})
	t.mu.Unlock()
	return id
}

// opOf returns the shared operation id of an open or finished span.
func (t *tracer) opOf(id int) int {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].op
}

func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	at := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].end = at
	t.mu.Unlock()
}

// finished returns the closed spans in id order.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Children may overlap
// one another (parallel worker calls under one sweep), so the covered
// part is the union of their intervals clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered time.Duration
		edge := s.start
		for _, k := range kids {
			lo, hi := max(k.start, edge), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.id] = s.dur() - covered
	}
	return out
}

// selfByName sums self time by span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.name] += self[s.id].Seconds()
	}
	return out
}

// writeChrome exports the spans as Chrome trace-event JSON through
// internal/trace, carrying id, parent and op as span arguments.
func (t *tracer) writeChrome(w io.Writer, meta map[string]string) error {
	rec := trace.NewRecorder()
	for _, s := range t.finished() {
		rec.Add(trace.Span{
			Name: s.name, Cat: "bench", Track: s.track,
			Wall: s.start.Nanoseconds(), WallDur: s.dur().Nanoseconds(),
		}.Annotate("id", int64(s.id)).Annotate("parent", int64(s.parent)).Annotate("op", int64(s.op)))
	}
	return rec.WriteChrome(w, meta)
}
