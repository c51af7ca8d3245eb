package trace

// Chrome trace-event export: the JSON object format understood by
// Perfetto (ui.perfetto.dev) and chrome://tracing. One Perfetto
// process per span category, one thread per track, complete ("X")
// events on the wall clock with the virtual clock carried in args.
//
// Reference: the Trace Event Format document (Google, public). The
// required keys per event are name, ph, ts, pid, tid; "X" events add
// dur. ts and dur are microseconds; fractional values carry nanosecond
// precision.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one trace-event row.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	TS   float64                `json:"ts"`
	Dur  *float64               `json:"dur,omitempty"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// chromeDoc is the JSON object form of a trace file.
type chromeDoc struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// virtTicksPerMicro converts engine ticks (picoseconds) to trace
// microseconds for the virtual-clock args.
const virtTicksPerMicro = 1e6

// WriteChrome serializes the recorder as Chrome trace-event JSON.
// meta, when non-nil, lands in the document's otherData block (the
// place for a run description or a propagated trace ID). Events are
// sorted by wall start then content, so ts is monotonic within every
// (pid, tid) track — the invariant the trace smoke test validates.
func (r *Recorder) WriteChrome(w io.Writer, meta map[string]string) error {
	spans := r.Spans()

	// One Perfetto process per category, numbered in sorted order so
	// the export is deterministic.
	cats := map[string]int{}
	for _, s := range spans {
		cats[s.Cat] = 0
	}
	names := make([]string, 0, len(cats))
	for c := range cats {
		names = append(names, c)
	}
	sort.Strings(names)
	for i, c := range names {
		cats[c] = i + 1
	}

	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Wall != spans[j].Wall {
			return spans[i].Wall < spans[j].Wall
		}
		return contentLess(spans[i], spans[j])
	})

	doc := chromeDoc{
		TraceEvents:     make([]chromeEvent, 0, len(spans)+2*len(names)),
		DisplayTimeUnit: "ms",
		OtherData:       meta,
	}
	if r != nil && !r.epoch.IsZero() {
		if doc.OtherData == nil {
			doc.OtherData = map[string]string{}
		}
		if _, ok := doc.OtherData["epoch"]; !ok {
			doc.OtherData["epoch"] = r.epoch.UTC().Format("2006-01-02T15:04:05.000000Z07:00")
		}
		if d := r.Dropped(); d > 0 {
			doc.OtherData["spans_dropped"] = fmt.Sprintf("%d", d)
		}
	}

	// Metadata: process names, plus thread names where NameTrack set one.
	for _, c := range names {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: cats[c], TID: 0,
			Args: map[string]interface{}{"name": c},
		})
	}
	if r != nil {
		r.mu.Lock()
		keys := make([]trackID, 0, len(r.trackNames))
		for k := range r.trackNames {
			keys = append(keys, k)
		}
		tn := make(map[trackID]string, len(r.trackNames))
		for k, v := range r.trackNames {
			tn[k] = v
		}
		r.mu.Unlock()
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].cat != keys[j].cat {
				return keys[i].cat < keys[j].cat
			}
			return keys[i].track < keys[j].track
		})
		for _, k := range keys {
			pid, ok := cats[k.cat]
			if !ok {
				continue
			}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: k.track,
				Args: map[string]interface{}{"name": tn[k]},
			})
		}
	}

	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			TS:   float64(s.Wall) / 1e3,
			PID:  cats[s.Cat],
			TID:  s.Track,
		}
		dur := float64(s.WallDur) / 1e3
		ev.Dur = &dur
		args := make(map[string]interface{}, s.NArgs+2)
		if s.Virt != 0 || s.VirtEnd != 0 {
			args["virt_us"] = float64(s.Virt) / virtTicksPerMicro
			args["virt_end_us"] = float64(s.VirtEnd) / virtTicksPerMicro
			// Wall-less spans (derived after the run, e.g. flow spans)
			// render on the virtual clock so they are visible at all.
			if s.Wall == 0 && s.WallDur == 0 {
				ev.TS = float64(s.Virt) / virtTicksPerMicro
				d := float64(s.VirtEnd-s.Virt) / virtTicksPerMicro
				ev.Dur = &d
			}
		}
		for i := 0; i < s.NArgs; i++ {
			args[s.Args[i].Key] = s.Args[i].Val
		}
		if len(args) > 0 {
			ev.Args = args
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}

	// Virtual-clock events were re-timed onto their own timeline, which
	// can break per-track wall monotonicity if a track mixes both kinds;
	// tracks never do (flow tracks are virtual-only, engine tracks
	// wall-only), but a final per-track stable sort keeps the exported
	// invariant unconditional.
	sort.SliceStable(doc.TraceEvents, func(i, j int) bool {
		a, b := doc.TraceEvents[i], doc.TraceEvents[j]
		if a.Ph == "M" || b.Ph == "M" {
			return a.Ph == "M" && b.Ph != "M"
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.TS < b.TS
	})

	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
