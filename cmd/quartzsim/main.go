// Command quartzsim runs the Quartz paper's evaluation and packet-level
// simulations of its architectures.
//
// Usage:
//
//	quartzsim [setup flags] [sink flags] [-dry-run]
//	quartzsim -scenario FILE [sink flags] [-dry-run]
//	quartzsim -run NAME|all [-seed N] [-tasks N] [-trials N] [-rpcs N] [-dry-run]
//
// Every form runs scenario documents (SCENARIOS.md) through
// internal/scenario: the setup flags build a simulation document, -run
// NAME the registry document {"experiment":{"name":NAME}} (-list prints
// the registry; -run all runs each entry's), and -dry-run prints a built
// document instead of running it. Sink flags and -csv write outputs
// beside the run. `quartzsim -h` lists the flags by group; -flagdoc
// prints them, and the flag-to-field mappings, as the Markdown in
// EXPERIMENTS.md. SIGINT/SIGTERM end the run; a simulation stops at the
// current virtual time and still writes every requested output.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/scenario"
	"github.com/quartz-dcn/quartz/internal/table"
	"github.com/quartz-dcn/quartz/internal/trace"
)

// flightRecorderSpans bounds the -flight-recorder ring: the last few
// thousand flows or cells of a long run.
const flightRecorderSpans = 4096

var (
	scenarioPath = flag.String("scenario", "", "run a scenario document (JSON, see SCENARIOS.md) instead of one built from the setup flags")
	runName      = flag.String("run", "", "run a registry experiment (a name from -list), or all of them, at the registry's defaults")
	list         = flag.Bool("list", false, "print the experiment registry and exit")
	dryRun       = flag.Bool("dry-run", false, "validate and print the compiled plan (and the document the setup flags build) without running")

	archName   = flag.String("arch", "edgecore", "architecture: "+archAliases())
	workload   = flag.String("workload", "scatter", "workload: scatter, gather, scattergather, permutation, incast, replay")
	replay     = flag.String("replay", "", "CSV trace file to replay (workload=replay): at_us,src,dst,size[,flow[,tag]]")
	failSpec   = flag.String("fail", "", "fault schedule: 'kind:target@time[,repair@time];...' e.g. 'link:3@2ms,repair@10ms' (kinds: link:<id>, switch:<name-or-id>, fiber:<fiber>.<segment>)")
	failDetect = flag.Duration("fail-detect", time.Millisecond, "detection delay before routes reconverge around a fault")
	failPolicy = flag.String("fail-policy", "drop", "in-flight packets on a cut link: drop or detour")
	tasks      = flag.Int("tasks", 4, "concurrent tasks (with -run: the task cap of fig17/fig18, default 8)")
	pps        = flag.Float64("pps", 20e3, "packets per second per stream")
	fanout     = flag.Int("fanout", 12, "receivers (or senders) per task")
	ms         = flag.Int("ms", 10, "measured milliseconds of virtual time")
	seed       = flag.Int64("seed", 1, "random seed (0 = the scenario default, 2014; with -run, 2014 unless given)")
	hot        = flag.Int("hot", 5, "show the N hottest ports")
	trials     = flag.Int("trials", 0, "with -run: scales validate's packet count, 30 x trials (0 = the registry default, 5000)")
	rpcs       = flag.Int("rpcs", 0, "with -run: RPCs per point of fig14 (0 = the registry default, 2000)")

	traceOut   = flag.String("trace", "", "record per-packet lifecycle events to this file (CSV, or JSON if it ends in .json)")
	traceMax   = flag.Int("trace-max", 100_000, "keep at most N trace events (0 = unbounded)")
	spansOut   = flag.String("trace-spans", "", "record execution spans (flow lifetimes, or experiment cells) and write Chrome trace-event JSON to this file (open in Perfetto)")
	flightRec  = flag.Bool("flight-recorder", false, "bound the span recorder to the most recent spans (with -trace-spans): a black box for long runs")
	probeUS    = flag.Int64("probe-interval", 0, "sample queue depth/utilization every N microseconds (0 = off)")
	probeOut   = flag.String("probe-out", "", "write the queue samples to this file (CSV, or JSON if it ends in .json)")
	telemetry  = flag.Bool("telemetry", true, "print the run-telemetry summary")
	flowsOut   = flag.String("flows-out", "", "write the per-flow telemetry table to this file (CSV, or JSON if it ends in .json)")
	csvDir     = flag.String("csv", "", "write each table the run exports as <table>.csv into this directory")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile = flag.String("memprofile", "", "write a pprof heap profile after the run to this file")
)

// docFlags is the whole of what the setup flags mean: each names the
// scenario field docFromFlags writes it to. Given together with
// -scenario they are two descriptions of one run, and rejected — except
// the two that are also sinks, which still name a file to write.
var docFlags = [][2]string{
	{"arch", "sim.topology.kind, sim.topology.quartz"},
	{"workload", "sim.workload.kind"},
	{"replay", "sim.workload.trace (the file's contents, inline)"},
	{"tasks", "sim.workload.tasks"},
	{"fanout", "sim.workload.fanout"},
	{"pps", "sim.workload.pps"},
	{"ms", "sim.duration_ms"},
	{"seed", "seed"},
	{"fail", "sim.faults.events"},
	{"fail-detect", "sim.faults.detect_ms"},
	{"fail-policy", "sim.faults.policy"},
	{"hot", "sim.probes.hot_ports"},
	{"probe-interval", "sim.probes.queue_sample_us"},
	{"flows-out", "sim.probes.flows"},
	{"trace-spans", "sim.probes.trace_spans"},
}

// runFlags is the whole of what -run's flags mean: each names the field
// of the registry document runDoc writes it to.
var runFlags = [][2]string{
	{"run", "experiment.name"},
	{"seed", "seed"},
	{"tasks", "experiment.tasks"},
	{"trials", "experiment.trials"},
	{"rpcs", "experiment.rpcs"},
}

// sinkFlags write side-band output beside the run. All but -trace-spans
// observe one network, which a sweep or a registry experiment lacks.
var sinkFlags = []string{"trace", "trace-spans", "probe-out", "flows-out", "telemetry"}

// archAliases lists the -arch values, core.Designs' aliases.
func archAliases() string {
	aliases := make([]string, len(core.Designs))
	for i, d := range core.Designs {
		aliases[i] = d.Alias
	}
	return strings.Join(aliases, ", ")
}

// usageError marks a problem with the invocation or the document (exit
// status 2) as opposed to one met while running (1).
type usageError struct{ error }

// parseFailSpec parses the -fail grammar — semicolon-separated clauses
// of kind:target@time[,repair@time], times as Go durations from the
// start of the run — into the document's fault events. Which kinds
// exist and when a fault may fire is the document's to validate.
func parseFailSpec(spec string) ([]scenario.FaultEventSpec, error) {
	var events []scenario.FaultEventSpec
	for _, clause := range strings.Split(spec, ";") {
		if clause = strings.TrimSpace(clause); clause == "" {
			continue
		}
		ev, err := parseFailClause(clause)
		if err != nil {
			return nil, fmt.Errorf("-fail clause %q: %v (want kind:target@time[,repair@time])", clause, err)
		}
		events = append(events, ev)
	}
	return events, nil
}

func parseFailClause(clause string) (ev scenario.FaultEventSpec, err error) {
	parseMS := func(s string) (float64, error) {
		d, err := time.ParseDuration(strings.TrimSpace(s))
		return scenario.DurationMS(d), err
	}
	main, repair, hasRepair := strings.Cut(clause, ",")
	kindTarget, at, _ := strings.Cut(main, "@")
	target := ""
	ev.Kind, target, _ = strings.Cut(strings.TrimSpace(kindTarget), ":")
	if ev.AtMS, err = parseMS(at); err != nil {
		return ev, err
	}
	if hasRepair {
		rs, _ := strings.CutPrefix(strings.TrimSpace(repair), "repair@")
		if ev.RepairMS, err = parseMS(rs); err != nil {
			return ev, err
		}
	}
	switch ev.Kind {
	case "link":
		ev.Link, err = strconv.Atoi(target)
	case "switch":
		ev.Switch = target
	case "fiber":
		fs, ss, _ := strings.Cut(target, ".")
		if ev.Fiber, err = strconv.Atoi(fs); err == nil {
			ev.Segment, err = strconv.Atoi(ss)
		}
	}
	return ev, err
}

// docFromFlags compiles the setup flags to the scenario document they
// describe and sends it through the same Decode as a file, so a flag
// run has the document's defaults and limits. set holds the flags given.
func docFromFlags(set map[string]bool) (*scenario.File, error) {
	d, ok := core.FindDesign(func(d core.Design) bool { return d.Alias == *archName })
	if !ok {
		return nil, fmt.Errorf("unknown architecture %q (see -h)", *archName)
	}
	spec := &scenario.SimSpec{
		Topology:   scenario.TopologySpec{Kind: d.Kind, Quartz: d.Quartz},
		Workload:   scenario.WorkloadSpec{Kind: *workload, Fanout: *fanout, PPS: *pps},
		DurationMS: float64(*ms),
		Probes: &scenario.ProbesSpec{
			Flows: *flowsOut != "", QueueSampleUS: *probeUS, HotPorts: *hot, TraceSpans: *spansOut != "",
		},
	}
	if set["tasks"] { // otherwise the kind's default: 4, or 1 for a single global pattern
		spec.Workload.Tasks = *tasks
	}
	if *replay != "" {
		data, err := os.ReadFile(*replay)
		if err != nil {
			return nil, err
		}
		spec.Workload.Trace = string(data)
	}
	if *failSpec != "" {
		events, err := parseFailSpec(*failSpec)
		if err != nil {
			return nil, err
		}
		spec.Faults = &scenario.FaultsSpec{DetectMS: scenario.DurationMS(*failDetect), Policy: *failPolicy, Events: events}
	}
	return decodeFlags(scenario.Doc{Schema: scenario.SchemaV1, Name: "quartzsim", Seed: *seed, Sim: spec}, "flags")
}

// runDoc builds the registry document of -run name. It writes only the
// flags given, so the rest take the registry's defaults.
func runDoc(name string, set map[string]bool) (*scenario.File, error) {
	doc := scenario.Doc{Schema: scenario.SchemaV1, Name: name,
		Experiment: &scenario.ExperimentSpec{Name: name, Trials: *trials, RPCs: *rpcs}}
	if set["seed"] {
		doc.Seed = *seed
	}
	if set["tasks"] {
		doc.Experiment.Tasks = *tasks
	}
	return decodeFlags(doc, "-run "+name)
}

// decodeFlags sends a document the flags built through the same Decode
// as a file. It decodes the normalized document in the form -dry-run
// prints (Normalize is idempotent, so Decode ends at the same document),
// so the line numbers in a validation error are those of that print.
func decodeFlags(doc scenario.Doc, source string) (*scenario.File, error) {
	doc.Normalize()
	return scenario.Decode(printed(doc), source)
}

// planParams formats, for the -dry-run plan, the parameters the run
// reads: a registry entry's four, or a simulation's or a sweep's seed
// alone (scenario.Compiled.Params).
func planParams(p experiments.Params) string {
	if p.Trials == 0 {
		return fmt.Sprintf("seed=%d", p.Seed)
	}
	return fmt.Sprintf("seed=%d trials=%d tasks=%d rpcs=%d", p.Seed, p.Trials, p.Tasks, p.RPCs)
}

// printed is a normalized document as -dry-run prints it: its
// canonical JSON, indented.
func printed(doc scenario.Doc) []byte {
	var b bytes.Buffer
	json.Indent(&b, scenario.Canonical(doc), "", "  ")
	return b.Bytes()
}

func printRegistry(w io.Writer) {
	fmt.Fprintf(w, "%-10s %-8s %s\n", "name", "section", "title")
	for _, e := range experiments.All() {
		fmt.Fprintf(w, "%-10s %-8s %s\n", e.Name, e.Section, e.Title)
	}
}

func main() {
	flag.Usage = usage
	flag.Parse()
	if *flagDoc {
		writeFlagDoc(os.Stdout)
		return
	}
	if *list {
		printRegistry(os.Stdout)
		return
	}
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "quartzsim: %v\n", err)
		if errors.As(err, &usageError{}) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// given returns the first non-sink flag of table in set that except
// does not name, with the field it writes.
func given(set map[string]bool, table, except [][2]string) (name, field string) {
	for _, m := range table {
		excepted := slices.ContainsFunc(except, func(e [2]string) bool { return e[0] == m[0] })
		if set[m[0]] && !excepted && !slices.Contains(sinkFlags, m[0]) {
			return m[0], m[1]
		}
	}
	return "", ""
}

// documents returns what the invocation runs: the -scenario file, the
// documents of -run, or the setup flags' one. A flag the document
// already says, or has no field for, is refused, never ignored.
func documents(set map[string]bool) ([]*scenario.File, error) {
	if *scenarioPath != "" {
		f, err := scenario.Load(*scenarioPath)
		if err != nil {
			return nil, err
		}
		tables := [][][2]string{docFlags, runFlags}
		if f.Doc.Experiment != nil { // name the field the document has
			tables[0], tables[1] = runFlags, docFlags
		}
		for _, t := range tables {
			if name, field := given(set, t, nil); name != "" {
				return nil, fmt.Errorf("-%s and -scenario both describe the run; set %s in %s instead", name, field, *scenarioPath)
			}
		}
		return []*scenario.File{f}, nil
	}
	if *runName == "" {
		if name, field := given(set, runFlags, docFlags); name != "" {
			return nil, fmt.Errorf("-%s sets %s of a registry experiment: give it with -run", name, field)
		}
		f, err := docFromFlags(set)
		return []*scenario.File{f}, err
	}
	if name, field := given(set, docFlags, runFlags); name != "" {
		return nil, fmt.Errorf("-%s sets %s of a simulation, but -run %s runs a registry experiment", name, field, *runName)
	}
	if *runName != "all" {
		if _, ok := experiments.Find(*runName); !ok {
			printRegistry(os.Stderr)
		}
		f, err := runDoc(*runName, set)
		return []*scenario.File{f}, err
	}
	var files []*scenario.File
	for _, e := range experiments.All() {
		f, err := runDoc(e.Name, set)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// oneSim reports whether doc runs exactly one simulated network.
func oneSim(doc scenario.Doc) bool { return doc.Sim != nil && doc.Sweep == nil }

// run produces the documents and executes them, or with -dry-run
// prints them and their plans.
func run() error {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["trace-max"] && *traceOut == "" {
		return usageError{errors.New("-trace-max bounds the events -trace keeps: give it with -trace")}
	}
	files, err := documents(set)
	if err != nil {
		return usageError{err}
	}
	compiled := make([]*scenario.Compiled, len(files))
	for i, file := range files {
		c, err := scenario.Compile(file)
		if err != nil {
			return usageError{err}
		}
		for _, name := range sinkFlags {
			if set[name] && name != "trace-spans" && !oneSim(c.Doc) {
				return usageError{fmt.Errorf("-%s writes one simulated network's output, but %s is a sweep or a registry experiment",
					name, file.Name)}
			}
		}
		if set["csv"] && c.Doc.Sim != nil {
			return usageError{fmt.Errorf("-csv writes the tables a registry experiment exports; a simulation (%s) exports none", file.Name)}
		}
		if *probeOut != "" && (c.Doc.Sim.Probes == nil || c.Doc.Sim.Probes.QueueSampleUS == 0) { // oneSim: checked above
			return usageError{errors.New("-probe-out needs a queue sampler: -probe-interval, or sim.probes.queue_sample_us in the document")}
		}
		compiled[i] = c
	}
	if !*dryRun {
		return execute(compiled)
	}
	for i, c := range compiled {
		plan := os.Stdout
		if *scenarioPath == "" { // the document alone on stdout, ready to save; the plan beside it
			fmt.Println(string(printed(c.Doc)))
			plan = os.Stderr
		}
		fmt.Fprintf(plan, "scenario:   %s (%s)\n", c.Doc.Name, files[i].Name)
		fmt.Fprintf(plan, "title:      %s\n", c.Experiment.Title)
		fmt.Fprintf(plan, "experiment: %s\n", c.Experiment.Name)
		fmt.Fprintf(plan, "params:     %s\n", planParams(c.Params))
		fmt.Fprintf(plan, "cache key:  %s\n", c.CacheKey())
		fmt.Fprintln(plan, "dry run: valid; not executing")
	}
	return nil
}

// execute runs the compiled documents in turn, under the profilers and
// the signal context. Its deferred profile writers run on every return,
// a failed run's included.
func execute(compiled []*scenario.Compiled) (err error) {
	if *cpuProfile != "" {
		f, ferr := os.Create(*cpuProfile)
		if ferr != nil {
			return ferr
		}
		if ferr := pprof.StartCPUProfile(f); ferr != nil {
			f.Close()
			return ferr
		}
		defer func() {
			pprof.StopCPUProfile()
			if ferr := f.Close(); ferr != nil {
				err = errors.Join(err, fmt.Errorf("writing CPU profile: %w", ferr))
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, ferr := os.Create(*memProfile)
			if ferr == nil {
				runtime.GC() // settle allocations so the heap profile is sharp
				ferr = errors.Join(pprof.WriteHeapProfile(f), f.Close())
			}
			if ferr != nil {
				err = errors.Join(err, fmt.Errorf("writing heap profile: %w", ferr))
			}
		}()
	}
	var spans *trace.Recorder
	if *spansOut != "" {
		spans = trace.NewRecorder()
		if *flightRec {
			spans = trace.NewFlightRecorder(flightRecorderSpans)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if doc := compiled[0].Doc; oneSim(doc) {
		return runSim(ctx, stop, doc, spans)
	}
	all := *runName == "all"
	for _, c := range compiled {
		if all {
			fmt.Printf("==> %s\n", c.Experiment.Title)
		}
		p := c.Params
		p.Trace = spans
		out, err := c.Experiment.Run(ctx, p)
		fmt.Print(out.Text)
		if err != nil {
			return err
		}
		if err := exportCSV(out.Tables); err != nil {
			return err
		}
		if all {
			fmt.Println()
		}
	}
	if spans == nil {
		return nil
	}
	name := compiled[0].Doc.Name
	if all {
		name = *runName
	}
	return writeSpans(spans, map[string]string{"tool": "quartzsim", "scenario": name})
}

// exportCSV writes each table into -csv's directory as <name>.csv.
func exportCSV(tables []table.Table) error {
	if *csvDir == "" || len(tables) == 0 {
		return nil
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		return err
	}
	for _, t := range tables {
		path := filepath.Join(*csvDir, t.Name+".csv")
		if err := writeFile(path, "(wrote "+path+")", t.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

// emit writes one table to path, as JSON when the extension says so,
// and reports its rows as what.
func emit(path, what string, t table.Table) error {
	write := t.WriteCSV
	if strings.HasSuffix(path, ".json") {
		write = t.WriteJSON
	}
	return writeFile(path, fmt.Sprintf("wrote %d %s to %s", t.Len(), what, path), write)
}

// writeSpans writes the run's execution spans to -trace-spans' file.
func writeSpans(spans *trace.Recorder, meta map[string]string) error {
	write := func(w io.Writer) error { return spans.WriteChrome(w, meta) }
	return writeFile(*spansOut, fmt.Sprintf("wrote %d execution spans to %s", spans.Len(), *spansOut), write)
}

// writeFile writes path with write, then prints report.
func writeFile(path, report string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := errors.Join(write(f), f.Close()); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Println(report)
	return nil
}

// runSim executes a single-network document with the sink flags
// attached beside it: they observe the run, and everything they print
// comes after — never inside — the document's deterministic text.
func runSim(ctx context.Context, stopSignals func(), doc scenario.Doc, spans *trace.Recorder) error {
	sinks := scenario.Sinks{Flows: *flowsOut != "", Spans: spans}
	if *traceOut != "" {
		sinks.Trace = netsim.NewTraceRecorder(*traceMax)
	}
	s, err := scenario.NewSim(experiments.Shared{}, doc.Sim, doc.Seed, sinks)
	if err != nil {
		return err
	}

	text, err := s.Run(ctx)
	if errors.Is(err, context.Canceled) {
		// The partial run still flows into every requested output.
		stopSignals() // a second signal now kills immediately
		fmt.Fprintf(os.Stderr, "quartzsim: interrupted at virtual time %v; writing partial outputs\n", s.Net.Engine().Now())
	} else if err != nil {
		return err
	}
	fmt.Print(text)

	if rec := s.Trace; rec != nil {
		if err := emit(*traceOut, "trace events", rec.Table()); err != nil {
			return err
		}
		if tr := rec.Truncated(); tr > 0 {
			fmt.Fprintf(os.Stderr,
				"quartzsim: warning: trace is INCOMPLETE: %d event(s) discarded by -trace-max %d; raise it or pass -trace-max 0\n",
				tr, *traceMax)
		}
	}
	if sampler := s.Sampler; *probeOut != "" {
		if err := emit(*probeOut, "queue samples", sampler.Table()); err != nil {
			return err
		}
		if tr := sampler.Truncated(); tr > 0 {
			fmt.Fprintf(os.Stderr, "quartzsim: warning: queue samples are INCOMPLETE: %d row(s) past the bound discarded; sample less often\n", tr)
		}
	}
	if flows := s.Flows; *flowsOut != "" {
		if err := emit(*flowsOut, "flow rows", flows.Table()); err != nil {
			return err
		}
	}
	if spans != nil {
		meta := map[string]string{
			"tool": "quartzsim", "scenario": doc.Name, "arch": s.Arch.Name,
			"workload": doc.Sim.Workload.Kind, "seed": strconv.FormatInt(doc.Seed, 10),
		}
		if err := writeSpans(spans, meta); err != nil {
			return err
		}
	}
	if *telemetry {
		et := s.Net.Engine().Telemetry()
		fmt.Printf("telemetry: %d events (peak calendar %d) in %v (%.3g ev/s); %d delivered, %d dropped\n",
			et.Events, et.PeakPending, et.Wall.Round(time.Microsecond), et.EventsPerSecond(), s.Net.Delivered(), s.Net.Dropped())
	}
	return nil
}
