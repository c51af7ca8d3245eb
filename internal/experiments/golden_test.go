package experiments_test

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/scenario"
	"github.com/quartz-dcn/quartz/internal/table"
)

// The files under testdata/golden pin the rendered text of every
// registry experiment, of one scenario and of three scenario sweeps at
// small fixed parameters, the CSV of every table they export, and (in
// events.txt) the number of simulator events each run processed — 0 for
// the analytic experiments. An event count is fixed by the code, the
// parameters and the seed, so it is a golden value like the text. The
// packet-level texts were first pinned on the commit before the forward
// path was reworked to move packets by pointer and elide idle-port
// completions, the scenario on the commit before the multi-shard
// execution family was deleted, the six analytic texts (fig5 … fig1) on
// the commit before the fiber-cut and max-min kernels were rewritten,
// the last nine (fig14 … table16) on the commit before the grid
// experiments moved behind one constructor, the tables before they were
// built as internal/table values and the sweeps before they ran on the
// Grid executor, so "byte-identical output" is checked across commits,
// not only within one process.
//
// A mismatch reports the first lines that differ and writes what the run
// printed beside the file, as <name>.got for <name>.txt or <name>.csv.
// A change that alters results on purpose regenerates the files with
//
//	go test ./internal/experiments -run Golden -update
//
// and says why in CHANGES.md; the diff of testdata/golden is the review.
var update = flag.Bool("update", false, "rewrite testdata/golden from this run instead of comparing with it")

var goldenParams = experiments.Params{Seed: 7, Trials: 200, Tasks: 2, RPCs: 50}

const goldenDir = "testdata/golden"

// checkGolden compares got with the golden file name, or rewrites the
// file under -update. On a mismatch it writes got beside the file, with
// the extension .got.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotPath := strings.TrimSuffix(path, filepath.Ext(path)) + ".got"
	if string(want) == got {
		os.Remove(gotPath)
		return
	}
	if err := os.WriteFile(gotPath, []byte(got), 0o644); err != nil {
		t.Error(err)
	}
	t.Errorf("%s changed; this run's output is in %s\n%s", path, gotPath, firstDiff(string(want), got))
}

// firstDiff lists the first few lines, by number, at which got differs
// from want.
func firstDiff(want, got string) string {
	w, g := strings.SplitAfter(want, "\n"), strings.SplitAfter(got, "\n")
	line := func(lines []string, k int) string {
		if k < len(lines) {
			return fmt.Sprintf("%q", lines[k])
		}
		return "(no line)"
	}
	var b strings.Builder
	shown := 0
	for k := 0; k < max(len(w), len(g)); k++ {
		if k < len(w) && k < len(g) && w[k] == g[k] {
			continue
		}
		if shown++; shown > 5 {
			b.WriteString("…\n")
			break
		}
		fmt.Fprintf(&b, "line %d want: %s\nline %d  got: %s\n", k+1, line(w, k), k+1, line(g, k))
	}
	return b.String()
}

// events.txt holds one "<run> <events>" line per golden run, sorted by
// run; eventsMap is its content, read once.
var (
	eventsMu  sync.Mutex
	eventsMap map[string]uint64
)

func loadEvents(t *testing.T) map[string]uint64 {
	t.Helper()
	if eventsMap != nil {
		return eventsMap
	}
	eventsMap = map[string]uint64{}
	f, err := os.Open(filepath.Join(goldenDir, "events.txt"))
	if err != nil {
		if *update && os.IsNotExist(err) {
			return eventsMap
		}
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, n, ok := strings.Cut(sc.Text(), " ")
		count, err := strconv.ParseUint(n, 10, 64)
		if !ok || err != nil {
			t.Fatalf("events.txt: bad line %q", sc.Text())
		}
		eventsMap[name] = count
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return eventsMap
}

// checkEvents compares a run's event count with its line in events.txt,
// or rewrites that line under -update.
func checkEvents(t *testing.T, name string, got uint64) {
	t.Helper()
	eventsMu.Lock()
	defer eventsMu.Unlock()
	events := loadEvents(t)
	if *update {
		events[name] = got
		names := make([]string, 0, len(events))
		for n := range events {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s %d\n", n, events[n])
		}
		if err := os.WriteFile(filepath.Join(goldenDir, "events.txt"), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want, ok := events[name]; !ok || got != want {
		t.Errorf("%s processed %d events, events.txt says %d (present: %v)", name, got, want, ok)
	}
}

// checkTables compares every exported table's CSV with its golden file,
// <prefix>.<table name>.csv, and fails on a table with no file or a
// file with no table.
func checkTables(t *testing.T, prefix string, tables []table.Table) {
	t.Helper()
	want, err := filepath.Glob(filepath.Join(goldenDir, prefix+".*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tb := range tables {
		var b strings.Builder
		if err := tb.WriteCSV(&b); err != nil {
			t.Fatalf("table %s: %v", tb.Name, err)
		}
		name := prefix + "." + tb.Name + ".csv"
		got = append(got, filepath.Join(goldenDir, name))
		checkGolden(t, name, b.String())
	}
	sort.Strings(got)
	if !*update && strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s exports tables %v, golden files are %v", prefix, got, want)
	}
}

func TestGoldenExperimentOutput(t *testing.T) {
	for _, e := range experiments.All() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			out, err := e.Run(context.Background(), goldenParams)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, e.Name+".txt", out.Text)
			checkEvents(t, e.Name, out.Events)
			checkTables(t, e.Name, out.Tables)
		})
	}
}

// goldenScenario exercises what the registry experiments do not: the
// scenario runner, a fiber cut with held-and-detoured frames, the flow
// table, and the queue sampler reading port depth between packet
// events.
const goldenScenario = `{"schema": "quartz-scenario/v1", "name": "golden", "seed": 7,
 "sim": {"duration_ms": 4,
         "topology": {"kind": "ring"},
         "workload": {"kind": "scattergather", "tasks": 3, "fanout": 8},
         "faults": {"detect_ms": 0.5, "policy": "detour",
                    "events": [{"kind": "fiber", "fiber": 0, "segment": 2, "at_ms": 1, "repair_ms": 3}]},
         "probes": {"flows": true, "queue_sample_us": 50, "hot_ports": 4}}}`

func TestGoldenScenario(t *testing.T) {
	f, err := scenario.Decode([]byte(goldenScenario), "golden.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := scenario.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Experiment.Run(context.Background(), c.Params)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scenario.txt", out.Text)
	checkEvents(t, "scenario", out.Events)
}

// TestScenarioSweepAllocBudget is TestPacketCellAllocBudget's row for
// the scenario runner, measured the same way: the scattergather sweep
// of examples/scenarios (8 cells, as golden as sweep.scattergather).
func TestScenarioSweepAllocBudget(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "scattergather.json"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := scenario.Decode(data, "scattergather.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := scenario.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	experiments.CheckAllocBudget(t, "sweep.scattergather", 982_960, 2_298, func() error {
		_, err := c.Experiment.Run(context.Background(), c.Params)
		return err
	})
}

// goldenSweeps are the scenario sweeps whose merge — text, event count
// (the sum of their cells') and every table their cells export, renamed
// per cell — is pinned under sweep.<name>. doc is an examples/scenarios
// file name or an inline document.
var goldenSweeps = []struct{ name, doc string }{
	{"jellyfish-sweep", "jellyfish-sweep.json"},
	{"scattergather", "scattergather.json"},
	{"fig5-seeds", `{"schema": "quartz-scenario/v1", "name": "fig5-seeds",
	   "experiment": {"name": "fig5"}, "sweep": {"axes": {"seed": [1, 2]}}}`},
}

func TestGoldenSweeps(t *testing.T) {
	for _, g := range goldenSweeps {
		data, file := []byte(g.doc), "inline.json"
		if strings.HasSuffix(g.doc, ".json") {
			var err error
			file = g.doc
			if data, err = os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", g.doc)); err != nil {
				t.Fatal(err)
			}
		}
		f, err := scenario.Decode(data, file)
		if err != nil {
			t.Fatal(err)
		}
		c, err := scenario.Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Experiment.Run(context.Background(), c.Params)
		if err != nil {
			t.Fatal(err)
		}
		prefix := "sweep." + g.name
		checkGolden(t, prefix+".txt", out.Text)
		checkEvents(t, prefix, out.Events)
		checkTables(t, prefix, out.Tables)
	}
}

// TestGoldenScenarioTables pins the golden scenario's side band — its
// whole packet trace, its queue samples and its flow table — as CSV.
func TestGoldenScenarioTables(t *testing.T) {
	f, err := scenario.Decode([]byte(goldenScenario), "golden.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.NewSim(experiments.Shared{}, f.Doc.Sim, f.Doc.Seed, scenario.Sinks{Trace: netsim.NewTraceRecorder(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkEvents(t, "scenario", s.Net.Engine().Processed())
	checkTables(t, "scenario", []table.Table{s.Trace.Table(), s.Sampler.Table(), s.Flows.Table()})
}

// TestGoldenFilesHaveARun fails on a golden file or events.txt line
// that no golden run above produces — what deleting an experiment
// leaves behind. A run's files are <run>.txt and <run>.<table>.csv
// (checkTables pins the table names); .got files are a failed run's
// output, not goldens.
func TestGoldenFilesHaveARun(t *testing.T) {
	runs := map[string]bool{"scenario": true}
	for _, e := range experiments.All() {
		runs[e.Name] = true
	}
	for _, g := range goldenSweeps {
		runs["sweep."+g.name] = true
	}
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if name == "events.txt" || filepath.Ext(name) == ".got" {
			continue
		}
		ok := false
		if run, isText := strings.CutSuffix(name, ".txt"); isText {
			ok = runs[run]
		} else if stem, isCSV := strings.CutSuffix(name, ".csv"); isCSV {
			for run := range runs {
				ok = ok || strings.HasPrefix(stem, run+".")
			}
		}
		if !ok {
			t.Errorf("%s/%s belongs to no golden run: delete it", goldenDir, name)
		}
	}
	eventsMu.Lock()
	events := loadEvents(t)
	eventsMu.Unlock()
	for run := range events {
		if !runs[run] {
			t.Errorf("%s/events.txt has a line for %q, which is no golden run: delete it", goldenDir, run)
		}
	}
}
