package scenario

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/trace"
)

// compileSim is a helper: decode + compile a sim document.
func compileSim(t *testing.T, doc string) *Compiled {
	t.Helper()
	f, err := Decode([]byte(doc), "t.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runOnce(t *testing.T, c *Compiled) string {
	t.Helper()
	out, err := c.Experiment.Run(context.Background(), c.Params)
	if err != nil {
		t.Fatal(err)
	}
	return out.Text
}

func TestSimRunDeterministic(t *testing.T) {
	doc := `{"schema": "quartz-scenario/v1", "name": "det",
	         "sim": {"duration_ms": 2,
	                 "topology": {"kind": "tree3", "quartz": "edge"},
	                 "workload": {"kind": "scatter", "tasks": 2, "fanout": 3, "pps": 2000},
	                 "probes": {"flows": true, "hot_ports": 3}}}`
	c := compileSim(t, doc)
	a := runOnce(t, c)
	b := runOnce(t, c)
	if a != b {
		t.Fatalf("same scenario, different output:\n--- first\n%s\n--- second\n%s", a, b)
	}
	for _, want := range []string{"delivered", "task  1:", "task  2:", "hottest ports", "flows:"} {
		if !strings.Contains(a, want) {
			t.Errorf("output missing %q:\n%s", want, a)
		}
	}
}

func TestSimRunFaults(t *testing.T) {
	doc := `{"schema": "quartz-scenario/v1", "name": "cut",
	         "sim": {"duration_ms": 3,
	                 "topology": {"kind": "tree3"},
	                 "workload": {"kind": "scatter", "tasks": 1, "fanout": 2, "pps": 1000},
	                 "faults": {"detect_ms": 0.5,
	                            "events": [{"kind": "link", "link": 0, "at_ms": 1, "repair_ms": 2}]}}}`
	c := compileSim(t, doc)
	out := runOnce(t, c)
	for _, want := range []string{"fault schedule: 1 event(s)", "fail:", "repair:", "routes reconverged"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSimRunWorkloads(t *testing.T) {
	for _, kind := range []string{"gather", "scattergather", "permutation", "incast"} {
		t.Run(kind, func(t *testing.T) {
			doc := `{"schema": "quartz-scenario/v1", "name": "w",
			         "sim": {"duration_ms": 1,
			                 "topology": {"kind": "tree2"},
			                 "workload": {"kind": "` + kind + `", "fanout": 2, "pps": 500}}}`
			c := compileSim(t, doc)
			out := runOnce(t, c)
			if !strings.Contains(out, "delivered") {
				t.Errorf("no summary:\n%s", out)
			}
		})
	}
}

func TestSimRunVLBAndSampler(t *testing.T) {
	doc := `{"schema": "quartz-scenario/v1", "name": "vlb",
	         "sim": {"duration_ms": 1,
	                 "topology": {"kind": "ring"},
	                 "routing": {"policy": "vlb", "vlb_fraction": 0.5},
	                 "workload": {"kind": "scatter", "tasks": 1, "fanout": 2, "pps": 1000},
	                 "probes": {"queue_sample_us": 100}}}`
	c := compileSim(t, doc)
	out := runOnce(t, c)
	if !strings.Contains(out, "queue depth by port") {
		t.Errorf("sampler summary missing:\n%s", out)
	}
}

func TestSimRunCancellation(t *testing.T) {
	doc := `{"schema": "quartz-scenario/v1", "name": "cancel",
	         "sim": {"duration_ms": 1000,
	                 "topology": {"kind": "tree2"},
	                 "workload": {"kind": "scatter", "tasks": 1, "fanout": 2, "pps": 100}}}`
	c := compileSim(t, doc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Experiment.Run(ctx, c.Params); err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}

// stopPoll is sim's poll interval: a run whose done channel closes
// processes at most this many more events.
const stopPoll = 1 << 12

// Cancelling a run mid-cell stops the simulation, not only the dispatch
// of cells: the engine polls the context the cell was handed, so a
// cancelled or timed-out job stops within stopPoll events, however
// much of the document is left (here almost all of a second at 40 000
// pps per stream, a few seconds of wall time on one core).
func TestSimRunCancelledMidCell(t *testing.T) {
	f, err := Decode([]byte(`{"schema": "quartz-scenario/v1", "name": "cancel",
	         "sim": {"duration_ms": 1000,
	                 "topology": {"kind": "tree3"},
	                 "workload": {"kind": "scatter", "tasks": 8, "pps": 40000}}}`), "t.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSim(experiments.Shared{}, f.Doc.Sim, f.Doc.Seed, Sinks{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := s.Net.Engine()
	var seen uint64
	eng.Schedule(sim.Millisecond, func() {
		cancel()
		seen = eng.Processed()
	})
	if _, err := s.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if after := eng.Processed() - seen; seen == 0 || after > stopPoll {
		t.Errorf("cancelled in event %d, the run processed %d more; want at most %d", seen, after, stopPoll)
	}
}

// A cancelled run still renders the portion it simulated: Run returns
// that text together with ctx.Err(), so quartzsim can print it and
// write its sinks while a job (runCell) discards it.
func TestSimRunReturnsPartialTextOnCancel(t *testing.T) {
	f, err := Decode([]byte(`{"schema": "quartz-scenario/v1", "name": "cancel",
	         "sim": {"duration_ms": 1000,
	                 "topology": {"kind": "tree2"},
	                 "workload": {"kind": "scatter", "tasks": 1, "fanout": 2, "pps": 100}}}`), "t.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSim(experiments.Shared{}, f.Doc.Sim, f.Doc.Seed, Sinks{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	text, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(text, "delivered") {
		t.Errorf("no partial summary:\n%s", text)
	}
	if now := s.Net.Engine().Now(); now >= 1000*sim.Millisecond {
		t.Errorf("the loop ran to %v despite the cancelled context", now)
	}
}

// A workload that needs more hosts than the topology has is a
// validation error naming the field, the need and the topology: the
// document is refused before anything is built (it used to be a
// slice-bounds panic in pick, then an error from NewSim).
func TestFanoutExceedingHostsIsAnError(t *testing.T) {
	for _, tc := range []struct{ name, topology, workload, want string }{
		{"scatter on the default tree3", `{"kind": "tree3"}`, `{"kind": "scatter", "fanout": 100}`,
			`sim.workload.fanout: scatter with fanout 100 needs 101 hosts; the three-tier tree (topology "tree3") has 64`},
		{"gather", `{"kind": "ring"}`, `{"kind": "gather", "fanout": 4096}`, "needs 4097 hosts"},
		{"scattergather, one short", `{"kind": "tree2", "pods": 1, "tors_per_pod": 2, "hosts_per_tor": 2}`,
			`{"kind": "scattergather", "fanout": 4}`, "needs 5 hosts"},
		{"incast on one host", `{"kind": "tree2", "pods": 1, "tors_per_pod": 1, "hosts_per_tor": 1}`,
			`{"kind": "incast", "fanout": 3}`, "needs 2 hosts"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(`{"schema": "quartz-scenario/v1", "name": "f", "sim": {"duration_ms": 1,
				"topology": `+tc.topology+`, "workload": `+tc.workload+`}}`), "t.json")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
	// The largest fanout that fits still runs.
	c := compileSim(t, `{"schema": "quartz-scenario/v1", "name": "f", "sim": {"duration_ms": 1,
		"topology": {"kind": "tree2", "pods": 1, "tors_per_pod": 2, "hosts_per_tor": 2},
		"workload": {"kind": "scatter", "tasks": 1, "fanout": 3, "pps": 1000}}}`)
	if out := runOnce(t, c); !strings.Contains(out, "3 streams each") {
		t.Errorf("fanout 3 on 4 hosts:\n%s", out)
	}
}

// The replay kind carries its packets inline and groups latency by the
// trace's own tags.
func TestSimRunReplay(t *testing.T) {
	const doc = `{"schema": "quartz-scenario/v1", "name": "rp",
	  "sim": {"duration_ms": 1, "topology": {"kind": "tree2"},
	          "workload": {"kind": "replay",
	                       "trace": "at_us,src,dst,size,flow,tag\n10,0,5,400,1,1\n20,1,6,400,2,3\n30.5,0,5,400,1,1\n"}}}`
	c := compileSim(t, doc)
	if c.Doc.Sim.Workload.Tasks != 1 {
		t.Errorf("replay tasks = %d, want 1", c.Doc.Sim.Workload.Tasks)
	}
	out := runOnce(t, c)
	for _, want := range []string{"two-tier tree | replay | 3 trace events | 1 ms", "delivered 3 packets, dropped 0", "tag   1: n=2", "tag   3: n=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, tc := range []struct{ name, workload, want string }{
		{"no trace", `{"kind": "replay"}`, "t.json:3: sim.workload.trace: missing required field"},
		{"unparsable row", `{"kind": "replay", "trace": "10,0,x,400"}`, `sim.workload.trace: traffic: trace line 1: bad field "x"`},
		{"non-finite time", `{"kind": "replay", "trace": "NaN,0,1,400"}`, `sim.workload.trace: traffic: trace line 1: time "NaN" µs outside [0, 1e+09]`},
		{"tasks", `{"kind": "replay", "tasks": 2, "trace": "10,0,1,400"}`, "sim.workload.tasks: replay is a single global pattern"},
		{"trace on a generated kind", `{"kind": "scatter", "trace": "10,0,1,400"}`, `sim.workload.trace: a trace is the packet list of kind "replay"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte("{\"schema\": \"quartz-scenario/v1\", \"name\": \"rp\",\n\"sim\": {\"topology\": {\"kind\": \"tree2\"},\n\"workload\": "+tc.workload+"}}"), "t.json")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
	// A host index the topology does not have is only knowable once it
	// is built: a run-time error, not a panic.
	c = compileSim(t, strings.Replace(doc, "10,0,5,400,1,1", "10,0,999,400,1,1", 1))
	if _, err := c.Experiment.Run(context.Background(), c.Params); err == nil || !strings.Contains(err.Error(), "host index out of range") {
		t.Errorf("err = %v, want a host-index error", err)
	}
	// replay is not a value of the workload sweep axis: it has no
	// parameters for the other axes to vary.
	_, err := Decode([]byte(`{"schema": "quartz-scenario/v1", "name": "rp",
	  "sim": {"topology": {"kind": "tree2"}, "workload": {"kind": "scatter"}},
	  "sweep": {"axes": {"workload": ["gather", "replay"]}}}`), "t.json")
	if err == nil || !strings.Contains(err.Error(), `sweep.axes.workload[1]: unknown value "replay"`) {
		t.Errorf("err = %v, want replay rejected as an axis value", err)
	}
}

// Side-band observers ride beside the run and never reach the text:
// everything quartzsim's sink flags attach at once leaves the golden
// scenario's bytes alone, and each view is there to read afterwards.
func TestSideBandNeverChangesText(t *testing.T) {
	const doc = `{"schema": "quartz-scenario/v1", "name": "side", "seed": 7,
	  "sim": {"duration_ms": 2, "topology": {"kind": "ring"},
	          "workload": {"kind": "scattergather", "tasks": 2, "fanout": 4},
	          "faults": {"detect_ms": 0.5, "events": [{"kind": "fiber", "fiber": 0, "segment": 2, "at_ms": 1}]},
	          "probes": {"queue_sample_us": 50, "hot_ports": 3}}}`
	c := compileSim(t, doc)
	plain := runOnce(t, c)

	rec := trace.NewRecorder()
	s, err := NewSim(experiments.Shared{}, c.Doc.Sim, c.Doc.Seed, Sinks{Trace: netsim.NewTraceRecorder(0), Flows: true, Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	text, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if text != plain {
		t.Errorf("side-band observers changed the text:\n--- without\n%s\n--- with\n%s", plain, text)
	}
	if n := s.Trace.Table().Len(); n == 0 {
		t.Error("no trace events")
	}
	if n := len(s.Flows.Flows()); n == 0 || rec.Len() != n {
		t.Errorf("%d flows, %d spans: want one span per flow", n, rec.Len())
	}
	if n := s.Sampler.Table().Len(); n == 0 || strings.Contains(text, "flows:") {
		t.Errorf("%d samples; flows line present = %v", n, strings.Contains(text, "flows:"))
	}
}

// msTime rounds: every whole-nanosecond duration survives the trip
// duration → at_ms → sim.Time that quartzsim's -fail and -fail-detect
// make. Truncation lost a picosecond on one value in 37 (first: 260 ns
// → 259 999 ps).
func TestDurationRoundTrip(t *testing.T) {
	check := func(d time.Duration) {
		if got, want := msTime(DurationMS(d)), sim.Time(d.Nanoseconds())*sim.Nanosecond; got != want {
			t.Fatalf("%v → %v ms → %d ps, want %d", d, DurationMS(d), got, want)
		}
	}
	for d := time.Nanosecond; d <= 20*time.Millisecond; d += 7 * time.Nanosecond {
		check(d)
	}
	for _, d := range []time.Duration{260, 20 * time.Millisecond, 10 * time.Second, 9999999999} {
		check(d)
	}
}

// A topology pair that is no design (tree2 has no Quartz placement) is
// refused by Decode, and by NewSim for a spec that skipped validation.
func TestBuildArchRejectsUnknownCombo(t *testing.T) {
	spec := &SimSpec{Topology: TopologySpec{Kind: "tree2", Quartz: "edge"}, DurationMS: 1}
	if _, err := NewSim(experiments.Shared{}, spec, 1, Sinks{}); err == nil {
		t.Error("NewSim built tree2/edge")
	}
	if _, err := Decode([]byte(`{"schema": "quartz-scenario/v1", "name": "u", "sim": {"duration_ms": 1,
		"topology": {"kind": "tree2", "quartz": "edge"}, "workload": {"kind": "scatter"}}}`), "t.json"); err == nil {
		t.Error("Decode accepted tree2/edge")
	}
}

// A registry-backed scenario run goes through the registry entry.
func TestRegistryScenarioRuns(t *testing.T) {
	doc := `{"schema": "quartz-scenario/v1", "name": "t2",
	         "experiment": {"name": "table2"}}`
	f, err := Decode([]byte(doc), "t.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Experiment.Run(context.Background(), c.Params.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if out.Text == "" {
		t.Error("empty output")
	}
}

func TestSimRunTraceSpans(t *testing.T) {
	withProbes := func(probes string) string {
		return `{"schema": "quartz-scenario/v1", "name": "spans",
		         "sim": {"duration_ms": 2,
		                 "topology": {"kind": "tree3", "quartz": "edge"},
		                 "workload": {"kind": "scatter", "tasks": 2, "fanout": 3, "pps": 2000}` + probes + `}}`
	}
	c := compileSim(t, withProbes(`, "probes": {"trace_spans": true}`))

	// Without a recorder the probe is inert.
	plain := runOnce(t, c)

	// With one, flow spans land in it — and the rendered
	// text stays byte-identical, so tracing never splits cache entries.
	rec := trace.NewRecorder()
	p := c.Params
	p.Trace = rec
	out, err := c.Experiment.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Text != plain {
		t.Errorf("trace_spans changed the rendered output:\n--- without\n%s\n--- with\n%s", plain, out.Text)
	}
	names := map[string]int{}
	for _, s := range rec.Spans() {
		names[s.Cat+"/"+s.Name]++
	}
	if names["net/flow"] == 0 {
		t.Errorf("no net/flow spans recorded (got %v)", names)
	}

	// Spans never reach the text, so the field cannot split the cache:
	// the document without it (or with it and nothing else in probes)
	// has the same key. A probe that does change the text still does.
	if a, b := c.CacheKey(), compileSim(t, withProbes("")).CacheKey(); a != b {
		t.Errorf("trace_spans splits the cache key: %s with, %s without", a, b)
	}
	hot := withProbes(`, "probes": {"trace_spans": true, "hot_ports": 3}`)
	if a, b := c.CacheKey(), compileSim(t, hot).CacheKey(); a == b {
		t.Errorf("hot_ports, which changes the text, left the cache key at %s", a)
	}
	if !strings.Contains(string(Canonical(c.Doc)), `"trace_spans":true`) {
		t.Errorf("the canonical document lost trace_spans: %s", Canonical(c.Doc))
	}
}

// quartzsim (NewSim with Sinks.Spans) and quartzd (Compile, then Run
// with Params.Trace) record the same flow spans for one trace_spans
// document.
func TestFlowSpansAgreeAcrossFrontEnds(t *testing.T) {
	c := compileSim(t, `{"schema": "quartz-scenario/v1", "name": "spans", "seed": 3,
	         "sim": {"duration_ms": 2,
	                 "topology": {"kind": "ring"},
	                 "workload": {"kind": "scattergather", "tasks": 2, "fanout": 3},
	                 "probes": {"trace_spans": true}}}`)
	cli := trace.NewRecorder()
	s, err := NewSim(experiments.Shared{}, c.Doc.Sim, c.Doc.Seed, Sinks{Spans: cli})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	job := trace.NewRecorder()
	p := c.Params
	p.Trace = job
	if _, err := c.Experiment.Run(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	type flowSpan struct {
		track         int
		virt, virtEnd int64
	}
	flowSpans := func(rec *trace.Recorder) []flowSpan {
		var out []flowSpan
		for _, sp := range rec.Spans() {
			if sp.Cat == "net" && sp.Name == "flow" {
				out = append(out, flowSpan{sp.Track, sp.Virt, sp.VirtEnd})
			}
		}
		return out
	}
	a, b := flowSpans(cli), flowSpans(job)
	if len(a) == 0 {
		t.Fatal("no net/flow spans recorded")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("flow spans differ: quartzsim's path recorded %v, quartzd's %v", a, b)
	}
}
