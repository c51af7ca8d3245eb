package scenario

import (
	"context"
	"strings"
	"testing"

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

func TestBuildArchRejectsUnknownCombo(t *testing.T) {
	_, err := BuildArch(TopologySpec{Kind: "tree2", Quartz: "edge"}, nil, nil)
	if err == nil {
		t.Fatal("tree2/edge should not build")
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
	doc := `{"schema": "quartz-scenario/v1", "name": "spans",
	         "sim": {"duration_ms": 2,
	                 "topology": {"kind": "tree3", "quartz": "edge"},
	                 "workload": {"kind": "scatter", "tasks": 2, "fanout": 3, "pps": 2000},
	                 "probes": {"trace_spans": true}}}`
	c := compileSim(t, doc)

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
}
