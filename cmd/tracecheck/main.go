// Command tracecheck validates a Chrome trace-event JSON file — the
// output of quartzsim -trace-spans and GET
// /jobs/{id}/trace — before it reaches Perfetto, where a malformed
// trace fails with an opaque importer error. scripts/trace_smoke.sh
// runs it over every export path.
//
// Usage:
//
//	tracecheck [-min-events N] [-require name,name,...] FILE
//
// Checks, against the trace-event format Perfetto imports:
//
//   - the document is a JSON object with a traceEvents array
//   - every event has name and ph; complete ("X") events also carry
//     ts, dur >= 0, pid, and tid
//   - complete events are start-sorted within each (pid, tid) track,
//     which keeps track rendering stable across viewers
//   - -require names must each appear as at least one X event
//   - at least -min-events X events in total
//
// Exit status 1 with a pointed message on the first violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

var (
	minEvents = flag.Int("min-events", 1, "require at least N complete (X) events")
	require   = flag.String("require", "", "comma-separated span names that must each appear as an X event")
)

// event is the slice of the trace-event schema the checks read. Fields
// are pointers where absence must be distinguishable from zero.
type event struct {
	Name *string  `json:"name"`
	Ph   *string  `json:"ph"`
	Ts   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
	Pid  *int     `json:"pid"`
	Tid  *int     `json:"tid"`
}

type traceFile struct {
	TraceEvents []json.RawMessage `json:"traceEvents"`
}

func die(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "tracecheck: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		die("usage: tracecheck [-min-events N] [-require names] FILE")
	}
	path := flag.Arg(0)
	raw, err := os.ReadFile(path)
	if err != nil {
		die("%v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		die("%s: not a JSON trace document: %v", path, err)
	}
	if tf.TraceEvents == nil {
		die("%s: no traceEvents array", path)
	}

	type track struct{ pid, tid int }
	lastTs := map[track]float64{}
	seen := map[string]bool{}
	complete := 0
	for i, msg := range tf.TraceEvents {
		var e event
		if err := json.Unmarshal(msg, &e); err != nil {
			die("%s: traceEvents[%d]: %v", path, i, err)
		}
		if e.Name == nil || e.Ph == nil {
			die("%s: traceEvents[%d]: missing name or ph", path, i)
		}
		if *e.Ph != "X" {
			continue // metadata and instants carry their own schemas
		}
		complete++
		seen[*e.Name] = true
		switch {
		case e.Ts == nil:
			die("%s: traceEvents[%d] (%s): X event without ts", path, i, *e.Name)
		case e.Dur == nil:
			die("%s: traceEvents[%d] (%s): X event without dur", path, i, *e.Name)
		case *e.Dur < 0:
			die("%s: traceEvents[%d] (%s): negative dur %g", path, i, *e.Name, *e.Dur)
		case e.Pid == nil || e.Tid == nil:
			die("%s: traceEvents[%d] (%s): X event without pid/tid", path, i, *e.Name)
		}
		k := track{*e.Pid, *e.Tid}
		if prev, ok := lastTs[k]; ok && *e.Ts < prev {
			die("%s: traceEvents[%d] (%s): ts %g precedes %g on track pid=%d tid=%d",
				path, i, *e.Name, *e.Ts, prev, k.pid, k.tid)
		}
		lastTs[k] = *e.Ts
	}
	if complete < *minEvents {
		die("%s: %d complete event(s), want at least %d", path, complete, *minEvents)
	}
	if *require != "" {
		for _, name := range strings.Split(*require, ",") {
			if name = strings.TrimSpace(name); name != "" && !seen[name] {
				die("%s: no %q span", path, name)
			}
		}
	}
	fmt.Printf("tracecheck: %s ok (%d complete events, %d tracks)\n", path, complete, len(lastTs))
}
