package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/scenario"
)

// setFlags puts every flag back to its default, applies the name/value
// pairs, and returns the set of flags given — what flag.Visit reports
// to run() after a real command line.
func setFlags(t *testing.T, pairs ...string) map[string]bool {
	t.Helper()
	reset := func() {
		flag.VisitAll(func(f *flag.Flag) {
			if !strings.HasPrefix(f.Name, "test.") {
				f.Value.Set(f.DefValue)
			}
		})
	}
	reset()
	t.Cleanup(reset)
	set := map[string]bool{}
	for i := 0; i < len(pairs); i += 2 {
		name := strings.TrimPrefix(pairs[i], "-")
		if err := flag.Set(name, pairs[i+1]); err != nil {
			t.Fatalf("-%s %s: %v", name, pairs[i+1], err)
		}
		set[name] = true
	}
	return set
}

// quartzsim re-executes the test binary as the command (see
// TestRemovedFlagsRejected) and returns its stdout, stderr and exit
// status. Arguments must not contain spaces.
func quartzsim(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestRemovedFlagsRejected$")
	cmd.Env = append(os.Environ(), "QUARTZSIM_TEST_ARGS="+strings.Join(args, " "))
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); ok {
		status = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("quartzsim %v: %v", args, err)
	}
	return out.String(), errb.String(), status
}

// Each -arch alias must select, through the document it describes, the
// design of that alias in core.Designs, whose Architecture.Name is on
// the right; an unknown alias builds no document.
func TestArchFlagSelectsTheSameArchitecture(t *testing.T) {
	want := map[string]string{
		"tree3":      "three-tier tree",
		"tree2":      "two-tier tree",
		"ring":       "single Quartz ring",
		"core":       "quartz in core",
		"edge":       "quartz in edge",
		"edgecore":   "quartz in edge and core",
		"jellyfish":  "jellyfish",
		"qjellyfish": "quartz in jellyfish",
	}
	for name, arch := range want {
		f, err := docFromFlags(setFlags(t, "-arch", name, "-fanout", "4"))
		if err != nil {
			t.Errorf("-arch %s: %v", name, err)
			continue
		}
		s, err := scenario.NewSim(experiments.Shared{}, f.Doc.Sim, f.Doc.Seed, scenario.Sinks{})
		if err != nil {
			t.Errorf("-arch %s (%+v): %v", name, f.Doc.Sim.Topology, err)
			continue
		}
		if s.Arch.Name != arch {
			t.Errorf("-arch %s builds %q, want %q", name, s.Arch.Name, arch)
		}
	}
	if len(core.Designs) != len(want) {
		t.Errorf("%d -arch names, the table above covers %d", len(core.Designs), len(want))
	}
	if _, err := docFromFlags(setFlags(t, "-arch", "hypercube")); err == nil {
		t.Error("-arch hypercube built a document")
	}
}

// A flag document's validation error names the line of the refused
// field in the document -dry-run prints for the same flags with a
// valid value, fields Normalize fills included.
func TestFlagErrorLinesMatchTheDryRun(t *testing.T) {
	for _, tc := range []struct {
		flag, bad, good, field string
	}{
		{"-ms", "20000", "1", "duration_ms"},
		{"-pps", "-5", "20000", "pps"},
		{"-fanout", "100", "12", "fanout"},
		{"-hot", "-1", "5", "hot_ports"},
	} {
		_, err := docFromFlags(setFlags(t, tc.flag, tc.bad))
		var list scenario.ErrorList
		if !errors.As(err, &list) || len(list) != 1 {
			t.Errorf("%s %s: error %v, want one validation error", tc.flag, tc.bad, err)
			continue
		}
		doc, plan, status := quartzsim(t, tc.flag, tc.good, "-dry-run")
		if status != 0 {
			t.Fatalf("%s %s -dry-run: %s", tc.flag, tc.good, plan)
		}
		want := 0
		for i, line := range strings.Split(doc, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), `"`+tc.field+`":`) {
				want = i + 1
			}
		}
		if want == 0 || list[0].Line != want {
			t.Errorf("%s %s: error at line %d (%v); %s is on line %d of the -dry-run document:\n%s",
				tc.flag, tc.bad, list[0].Line, err, tc.field, want, doc)
		}
	}
}

// goldenScenarioText is the file internal/experiments' golden tests pin
// their golden scenario document's text to: goldenFlags describe the
// same run, so the document they build must render the same bytes.
const goldenScenarioText = "../../internal/experiments/testdata/golden/scenario.txt"

var goldenFlags = []string{
	"-arch", "ring", "-workload", "scattergather", "-tasks", "3", "-fanout", "8", "-ms", "4", "-seed", "7",
	"-fail", "fiber:0.2@1ms,repair@3ms", "-fail-detect", "500us", "-fail-policy", "detour",
	"-probe-interval", "50", "-hot", "4", "-flows-out", "F",
}

func TestFlagsBuildTheGoldenScenario(t *testing.T) {
	f, err := docFromFlags(setFlags(t, goldenFlags...))
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
	want, err := os.ReadFile(goldenScenarioText)
	if err != nil {
		t.Fatal(err)
	}
	if out.Text != string(want) {
		t.Errorf("flag-built document renders\n%s\nwant the golden scenario's\n%s", out.Text, want)
	}
}

// The migration path from flags to files: the document -dry-run prints,
// saved and passed back through -scenario, is the same scenario (same
// scenario/<hash> identity and cache key) and prints the same text.
func TestDryRunDocumentRoundTrips(t *testing.T) {
	args := goldenFlags[:len(goldenFlags)-2] // -flows-out would write a file beside the run
	printed, plan, status := quartzsim(t, append(args, "-dry-run")...)
	if status != 0 {
		t.Fatalf("-dry-run failed: %s", plan)
	}
	if !json.Valid([]byte(printed)) {
		t.Fatalf("-dry-run's stdout is not one JSON document:\n%s", printed)
	}
	path := filepath.Join(t.TempDir(), "printed.json")
	if err := os.WriteFile(path, []byte(printed), 0o644); err != nil {
		t.Fatal(err)
	}
	identity := func(plan string) (id []string) {
		for _, line := range strings.Split(plan, "\n") {
			if strings.HasPrefix(line, "experiment: scenario/") || strings.HasPrefix(line, "cache key:") {
				id = append(id, line)
			}
		}
		return id
	}
	again, stderr, status := quartzsim(t, "-scenario", path, "-dry-run")
	if status != 0 {
		t.Fatalf("-scenario printed.json -dry-run failed: %s", stderr)
	}
	if a, b := identity(plan), identity(again); len(a) != 2 || strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("identity changed on the way through a file:\nflags: %q\nfile:  %q", a, b)
	}
	if strings.Contains(again, `"schema"`) {
		t.Errorf("-scenario -dry-run printed the document back:\n%s", again)
	}

	fromFlags, _, status := quartzsim(t, append(args, "-telemetry=false")...)
	fromFile, _, status2 := quartzsim(t, "-scenario", path, "-telemetry=false")
	if status != 0 || status2 != 0 || fromFlags != fromFile {
		t.Errorf("text differs:\n--- flags\n%s\n--- file\n%s", fromFlags, fromFile)
	}
	// Without -flows-out the document has no probes.flows, so this text
	// is the golden one minus its "flows:" line.
	if !strings.Contains(fromFile, "delivered 3954 packets, dropped 0\n") || strings.Contains(fromFile, "flows:") {
		t.Errorf("unexpected text:\n%s", fromFile)
	}
}

// Side-band sinks work for a -scenario document exactly as for flags:
// at the parent this invocation exited 0 having written neither file.
func TestSinksAttachToAScenarioFile(t *testing.T) {
	dir := t.TempDir()
	spans, flows := filepath.Join(dir, "s.json"), filepath.Join(dir, "f.csv")
	doc := "../../examples/scenarios/fault-cut.json"
	plain, _, status := quartzsim(t, "-scenario", doc, "-telemetry=false")
	if status != 0 {
		t.Fatal("plain run failed")
	}
	out, stderr, status := quartzsim(t, "-scenario", doc, "-telemetry=false", "-trace-spans", spans, "-flows-out", flows)
	if status != 0 {
		t.Fatalf("run with sinks failed: %s", stderr)
	}
	rest, ok := strings.CutPrefix(out, plain)
	if !ok || strings.Count(rest, "\n") != 2 || !strings.Contains(rest, "flow rows to "+flows) || !strings.Contains(rest, "execution spans to "+spans) {
		t.Errorf("want the document's text followed by two wrote-lines, got:\n%s", out)
	}
	for _, p := range []string{spans, flows} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v (size %v)", p, err, st)
		}
	}
}

// The -dry-run plan's params line names what the run reads: a flag-built
// simulation its seed alone (its tasks are in the document), a registry
// run its parameters with the registry's defaults filled in.
func TestDryRunPlanShowsTheParamsItRuns(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-ms", "1", "-tasks", "4", "-seed", "3"}, "params:     seed=3\n"},
		{[]string{"-run", "fig17", "-tasks", "4"}, "params:     seed=2014 trials=5000 tasks=4 rpcs=2000\n"},
	} {
		_, plan, status := quartzsim(t, append(tc.args, "-dry-run")...)
		if status != 0 || !strings.Contains(plan, tc.want) {
			t.Errorf("%v -dry-run: exit %d, want the line %q in the plan:\n%s", tc.args, status, tc.want, plan)
		}
	}
}
