package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilRecorderIsDisabled(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Add(Span{Name: "x"})
	r.NameTrack("c", 0, "n")
	if r.Len() != 0 || r.Dropped() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder holds state")
	}
	if r.Since(time.Now()) != 0 {
		t.Fatal("nil recorder has a clock")
	}
}

func TestFlightRecorderOverwritesOldest(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		r.Add(Span{Name: "s", Virt: int64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("len %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", r.Dropped())
	}
	spans := r.Spans()
	for i, s := range spans {
		if want := int64(6 + i); s.Virt != want {
			t.Fatalf("span %d has virt %d, want %d (oldest-first unwrap)", i, s.Virt, want)
		}
	}
}

func TestFlightRecorderCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 accepted")
		}
	}()
	NewFlightRecorder(0)
}

func TestAnnotateBounds(t *testing.T) {
	s := Span{Name: "s"}
	for i := 0; i < maxArgs+3; i++ {
		s = s.Annotate("k", int64(i))
	}
	if s.NArgs != maxArgs {
		t.Fatalf("NArgs %d, want %d", s.NArgs, maxArgs)
	}
}

// chromeFile mirrors the exported JSON for validation.
type chromeFile struct {
	TraceEvents []struct {
		Name string                 `json:"name"`
		Ph   string                 `json:"ph"`
		TS   *float64               `json:"ts"`
		Dur  *float64               `json:"dur"`
		PID  *int                   `json:"pid"`
		TID  *int                   `json:"tid"`
		Args map[string]interface{} `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

func TestWriteChrome(t *testing.T) {
	r := NewRecorder()
	r.NameTrack("engine", 0, "shard 0")
	r.NameTrack("engine", CoordinatorTrack, "coordinator")
	r.Add(Span{Name: "window", Cat: "engine", Track: 0, Virt: 1e6, VirtEnd: 2e6, Wall: 1000, WallDur: 500}.
		Annotate("events", 42))
	r.Add(Span{Name: "window", Cat: "engine", Track: 0, Virt: 2e6, VirtEnd: 3e6, Wall: 2000, WallDur: 700})
	r.Add(Span{Name: "flow", Cat: "net", Track: 3, Virt: 5e5, VirtEnd: 4e6})
	var b strings.Builder
	if err := r.WriteChrome(&b, map[string]string{"run": "test"}); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal([]byte(b.String()), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", f.DisplayTimeUnit)
	}
	if f.OtherData["run"] != "test" {
		t.Fatal("otherData lost the metadata")
	}
	var xEvents, mEvents int
	lastTS := map[[2]int]float64{}
	for _, e := range f.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.TS == nil || e.PID == nil || e.TID == nil {
			t.Fatalf("event missing required keys: %+v", e)
		}
		switch e.Ph {
		case "M":
			mEvents++
			continue
		case "X":
			xEvents++
			if e.Dur == nil {
				t.Fatalf("complete event without dur: %+v", e)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
		key := [2]int{*e.PID, *e.TID}
		if prev, ok := lastTS[key]; ok && *e.TS < prev {
			t.Fatalf("ts not monotonic on track %v: %v after %v", key, *e.TS, prev)
		}
		lastTS[key] = *e.TS
	}
	if xEvents != 3 {
		t.Fatalf("%d X events, want 3", xEvents)
	}
	if mEvents < 3 { // 2 process_name + 2 thread_name, net has no thread names
		t.Fatalf("%d metadata events, want >= 3", mEvents)
	}
	// The virtual-only flow span renders on the virtual clock: 0.5us.
	found := false
	for _, e := range f.TraceEvents {
		if e.Name == "flow" && e.Ph == "X" {
			found = true
			if *e.TS != 0.5 || *e.Dur != 3.5 {
				t.Fatalf("flow span ts/dur %v/%v, want 0.5/3.5", *e.TS, *e.Dur)
			}
			if e.Args["virt_us"] != 0.5 {
				t.Fatalf("flow span virt_us %v", e.Args["virt_us"])
			}
		}
	}
	if !found {
		t.Fatal("flow span missing from export")
	}
}

func TestWriteChromeRecordsDropped(t *testing.T) {
	r := NewFlightRecorder(1)
	r.Add(Span{Name: "a", Cat: "c"})
	r.Add(Span{Name: "b", Cat: "c"})
	var b strings.Builder
	if err := r.WriteChrome(&b, nil); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal([]byte(b.String()), &f); err != nil {
		t.Fatal(err)
	}
	if f.OtherData["spans_dropped"] != "1" {
		t.Fatalf("spans_dropped %q, want 1", f.OtherData["spans_dropped"])
	}
}
