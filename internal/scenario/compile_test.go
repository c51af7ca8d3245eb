package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/table"
)

// The acceptance property of the whole format: a scenario that merely
// parameterizes a registry experiment caches under the same key as a
// direct submission of that experiment.
func TestRegistryCacheKeyParity(t *testing.T) {
	cases := []struct {
		doc    string
		name   string
		params experiments.Params
	}{
		{
			doc: `{"schema": "quartz-scenario/v1", "name": "fig6-run",
			      "experiment": {"name": "fig6"}}`,
			name:   "fig6",
			params: experiments.Params{},
		},
		{
			doc: `{"schema": "quartz-scenario/v1", "name": "table8-run", "seed": 99,
			      "experiment": {"name": "table8", "trials": 250}}`,
			name:   "table8",
			params: experiments.Params{Seed: 99, Trials: 250},
		},
	}
	for _, tc := range cases {
		f, err := Decode([]byte(tc.doc), tc.name+".json")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c, err := Compile(f)
		if err != nil {
			t.Fatalf("%s: Compile: %v", tc.name, err)
		}
		if c.Experiment.Name != tc.name {
			t.Errorf("%s: compiled to %q, want the registry entry", tc.name, c.Experiment.Name)
		}
		want := experiments.CacheKey(tc.name, tc.params)
		if got := c.CacheKey(); got != want {
			t.Errorf("%s: CacheKey = %s, want %s (registry parity broken)", tc.name, got, want)
		}
	}
}

// Two byte-different documents meaning the same experiment must share
// one cache identity.
func TestCanonicalInvariance(t *testing.T) {
	terse := `{"schema": "quartz-scenario/v1", "name": "inv",
	           "sim": {"topology": {"kind": "tree3"}, "workload": {"kind": "scatter"}}}`
	spelled := `{
	  "seed": 2014,
	  "name": "inv",
	  "title": "inv",
	  "schema": "quartz-scenario/v1",
	  "sim": {
	    "duration_ms": 10,
	    "workload": {"kind": "SCATTER", "tasks": 4, "fanout": 12, "pps": 20000, "packet_size": 400},
	    "topology": {"kind": "Tree3", "quartz": "none"},
	    "routing": {"policy": "default"}
	  }
	}`
	a, err := Decode([]byte(terse), "a.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode([]byte(spelled), "b.json")
	if err != nil {
		t.Fatal(err)
	}
	if ScenarioName(a.Doc) != ScenarioName(b.Doc) {
		t.Errorf("defaults spelled out changed the identity:\n%s\n%s", Canonical(a.Doc), Canonical(b.Doc))
	}

	// Title is presentation only; it must not split cache entries.
	titled := strings.Replace(terse, `"name": "inv"`, `"name": "inv", "title": "A Grand Experiment"`, 1)
	c, err := Decode([]byte(titled), "c.json")
	if err != nil {
		t.Fatal(err)
	}
	if ScenarioName(a.Doc) != ScenarioName(c.Doc) {
		t.Error("title changed the cache identity")
	}

	// A real parameter change must split them.
	changed := strings.Replace(terse, `"kind": "scatter"`, `"kind": "gather"`, 1)
	d, err := Decode([]byte(changed), "d.json")
	if err != nil {
		t.Fatal(err)
	}
	if ScenarioName(a.Doc) == ScenarioName(d.Doc) {
		t.Error("different workloads share an identity")
	}
}

func TestSweepCells(t *testing.T) {
	doc := `{"schema": "quartz-scenario/v1", "name": "sw",
	         "experiment": {"name": "fig6"},
	         "sweep": {"axes": {"trials": [100, 200], "seed": [1, 2, 3]}, "trials": 2}}`
	f, err := Decode([]byte(doc), "sw.json")
	if err != nil {
		t.Fatal(err)
	}
	cells := cellsOf(&f.Doc)
	if len(cells) != 2*3*2 {
		t.Fatalf("got %d cells, want 12", len(cells))
	}
	// Sorted axis order: "seed" before "trials", last axis fastest,
	// trials innermost.
	first := cells[0]
	if first.overrides[0].name != "seed" || first.overrides[1].name != "trials" {
		t.Errorf("axis order = %v", first.overrides)
	}
	if cells[0].trial != 0 || cells[1].trial != 1 {
		t.Errorf("trials not innermost: %+v %+v", cells[0], cells[1])
	}
	if got := cells[1].label(2); got != "seed=1 trials=100, trial 2/2" {
		t.Errorf("label = %q", got)
	}

	// A sweep compiles to a synthesized experiment, not the registry
	// entry — its key must NOT collide with plain fig6.
	c, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(c.Experiment.Name, "scenario/") {
		t.Errorf("sweep compiled to %q, want a scenario/ name", c.Experiment.Name)
	}
	if c.CacheKey() == experiments.CacheKey("fig6", experiments.Params{}) {
		t.Error("sweep shares a cache key with the plain experiment")
	}
}

func TestSweepRunsEachCell(t *testing.T) {
	// doc(fanout, sweep) is a one-run document, or with sweep a sweep
	// over fanout.
	doc := func(fanout int, sweep string) string {
		return fmt.Sprintf(`{"schema": "quartz-scenario/v1", "name": "sweep-sim",
	         "sim": {"duration_ms": 1,
	                 "topology": {"kind": "tree2"},
	                 "workload": {"kind": "scatter", "tasks": 1, "fanout": %d, "pps": 500}}%s}`, fanout, sweep)
	}
	run := func(doc string, progress func(done, total int)) experiments.Output {
		t.Helper()
		f, err := Decode([]byte(doc), "sw.json")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Experiment.Run(context.Background(), experiments.Params{Seed: c.Params.Seed, Progress: progress})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var ticks []int
	out := run(doc(2, `, "sweep": {"axes": {"fanout": [2, 3]}}`), func(done, total int) { ticks = append(ticks, done*100+total) })
	if n := strings.Count(out.Text, "== sweep-sim ["); n != 2 {
		t.Errorf("want 2 cell headers, got %d in:\n%s", n, out.Text)
	}
	if !strings.Contains(out.Text, "fanout=2") || !strings.Contains(out.Text, "fanout=3") {
		t.Errorf("cell labels missing:\n%s", out.Text)
	}
	if len(ticks) != 2 || ticks[0] != 102 || ticks[1] != 202 {
		t.Errorf("progress ticks = %v", ticks)
	}
	// The sweep's event count is its cells': each run alone.
	if sum := run(doc(2, ""), nil).Events + run(doc(3, ""), nil).Events; out.Events == 0 || out.Events != sum {
		t.Errorf("sweep processed %d events, its cells alone %d", out.Events, sum)
	}
}

// A sweep is the union of its one-run documents: cell i's section of the
// sweep's text, and its tables less the -cellNNN suffix, are what
// Compile + Run print for the document with that cell's axis values and
// seed pinned and no sweep, whether the cells run on one worker or four.
// The seed a cell must run at is worked out here, not read from the
// header: the axis's seed, else the document's, plus the trial index.
func TestSweepIsTheUnionOfItsRuns(t *testing.T) {
	jellyfish, err := os.ReadFile(filepath.Join(examplesDir, "jellyfish-sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	fig5 := []byte(`{"schema": "quartz-scenario/v1", "name": "fig5-seeds",
	                 "experiment": {"name": "fig5"}, "sweep": {"axes": {"seed": [1, 2]}}}`)
	for _, src := range [][]byte{jellyfish, fig5} {
		c := compileSim(t, string(src))
		doc := c.Doc
		cells := cellsOf(&doc)
		var want strings.Builder
		var wantEvents uint64
		var wantTables []table.Table
		for i, cell := range cells {
			var m map[string]any
			if err := json.Unmarshal(src, &m); err != nil {
				t.Fatal(err)
			}
			delete(m, "sweep")
			seed := doc.Seed
			for _, ov := range cell.overrides {
				switch ov.name {
				case "seed":
					seed = int64(ov.val.(float64))
				case "quartz":
					m["sim"].(map[string]any)["topology"].(map[string]any)["quartz"] = ov.val
				case "workload":
					m["sim"].(map[string]any)["workload"].(map[string]any)["kind"] = ov.val
				default:
					t.Fatalf("axis %q has no one-run form here", ov.name)
				}
			}
			seed += int64(cell.trial)
			m["seed"] = seed
			one, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			c1 := compileSim(t, string(one))
			out, err := c1.Experiment.Run(context.Background(), c1.Params)
			if err != nil {
				t.Fatalf("%s cell %d alone: %v", doc.Name, i, err)
			}
			fmt.Fprintf(&want, "== %s [%d/%d: %s, seed %d]\n%s\n", doc.Name, i+1, len(cells), cell.label(doc.Sweep.Trials), seed, out.Text)
			wantEvents += out.Events
			for _, tb := range out.Tables {
				tb.Name += fmt.Sprintf("-cell%03d", i+1)
				wantTables = append(wantTables, tb)
			}
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			out, err := c.Experiment.Run(context.Background(), c.Params)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if out.Text != want.String() || out.Events != wantEvents {
				t.Errorf("%s at GOMAXPROCS %d: %d events, want %d; text\n%s\nwant\n%s",
					doc.Name, procs, out.Events, wantEvents, out.Text, want.String())
			}
			if len(out.Tables) != len(wantTables) {
				t.Fatalf("%s at GOMAXPROCS %d: %d tables, want %d", doc.Name, procs, len(out.Tables), len(wantTables))
			}
			for i, tb := range out.Tables {
				if got, want := csvOf(t, tb), csvOf(t, wantTables[i]); tb.Name != wantTables[i].Name || got != want {
					t.Errorf("%s at GOMAXPROCS %d: table %s differs from %s run alone", doc.Name, procs, tb.Name, wantTables[i].Name)
				}
			}
		}
	}
}

// csvOf returns tb's CSV.
func csvOf(t *testing.T, tb table.Table) string {
	t.Helper()
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCloneIsolation(t *testing.T) {
	doc := `{"schema": "quartz-scenario/v1", "name": "cl",
	         "sim": {"topology": {"kind": "tree3"}, "workload": {"kind": "scatter"},
	                 "faults": {"events": [{"kind": "link", "link": 1, "at_ms": 2}]}}}`
	f, err := Decode([]byte(doc), "cl.json")
	if err != nil {
		t.Fatal(err)
	}
	orig := f.Doc
	cp := orig.clone()
	cp.Sim.Workload.Tasks = 99
	cp.Sim.Faults.Events[0].Link = 99
	if orig.Sim.Workload.Tasks == 99 || orig.Sim.Faults.Events[0].Link == 99 {
		t.Error("clone shares state with the original")
	}
}
