// Command quartzsim runs packet-level simulations on the architectures
// of the paper and prints latency statistics, the hottest ports and, on
// request, traces, queue samples, flow tables and execution spans.
//
// Usage:
//
//	quartzsim [setup flags] [sink flags] [-dry-run]
//	quartzsim -scenario FILE [sink flags] [-dry-run]
//
// Both forms run one scenario document (format reference: SCENARIOS.md)
// through internal/scenario: the setup flags only build that document
// (-dry-run prints it) and the sink flags attach outputs beside the
// run. `quartzsim -h` lists the flags by group; -flagdoc prints them,
// and the flag-to-field mapping, as the Markdown in EXPERIMENTS.md.
// SIGINT/SIGTERM end the run at the current virtual time; every
// requested output is still written.
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
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/scenario"
	"github.com/quartz-dcn/quartz/internal/table"
	"github.com/quartz-dcn/quartz/internal/trace"
)

// flightRecorderSpans bounds the -flight-recorder ring: the last few
// thousand flows of a long run.
const flightRecorderSpans = 4096

var (
	scenarioPath = flag.String("scenario", "", "run a scenario document (JSON, see SCENARIOS.md) instead of one built from the setup flags")
	dryRun       = flag.Bool("dry-run", false, "validate and print the compiled plan (and the document the setup flags build) without running")

	archName   = flag.String("arch", "edgecore", "architecture: tree3, tree2, ring, core, edge, edgecore, jellyfish, qjellyfish")
	workload   = flag.String("workload", "scatter", "workload: scatter, gather, scattergather, permutation, incast, replay")
	replay     = flag.String("replay", "", "CSV trace file to replay (workload=replay): at_us,src,dst,size[,flow[,tag]]")
	failSpec   = flag.String("fail", "", "fault schedule: 'kind:target@time[,repair@time];...' e.g. 'link:3@2ms,repair@10ms' (kinds: link:<id>, switch:<name-or-id>, fiber:<fiber>.<segment>)")
	failDetect = flag.Duration("fail-detect", time.Millisecond, "detection delay before routes reconverge around a fault")
	failPolicy = flag.String("fail-policy", "drop", "in-flight packets on a cut link: drop or detour")
	tasks      = flag.Int("tasks", 4, "concurrent tasks")
	pps        = flag.Float64("pps", 20e3, "packets per second per stream")
	fanout     = flag.Int("fanout", 12, "receivers (or senders) per task")
	ms         = flag.Int("ms", 10, "measured milliseconds of virtual time")
	seed       = flag.Int64("seed", 1, "random seed (0 = the scenario default, 2014)")
	hot        = flag.Int("hot", 5, "show the N hottest ports")

	traceOut  = flag.String("trace", "", "record per-packet lifecycle events to this file (CSV, or JSON if it ends in .json)")
	traceMax  = flag.Int("trace-max", 100_000, "keep at most N trace events (0 = unbounded)")
	spansOut  = flag.String("trace-spans", "", "record execution spans (flow lifetimes) and write Chrome trace-event JSON to this file (open in Perfetto)")
	flightRec = flag.Bool("flight-recorder", false, "bound the span recorder to the most recent spans (with -trace-spans): a black box for long runs")
	probeUS   = flag.Int64("probe-interval", 0, "sample queue depth/utilization every N microseconds (0 = off)")
	probeOut  = flag.String("probe-out", "", "write the queue samples to this file (CSV, or JSON if it ends in .json)")
	telemetry = flag.Bool("telemetry", true, "print the run-telemetry summary")
	flowsOut  = flag.String("flows-out", "", "write the per-flow telemetry table to this file (CSV, or JSON if it ends in .json)")
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

// sinkFlags write one network's side-band output: a sweep runs several
// networks and a registry experiment none, so neither can take them.
var sinkFlags = []string{"trace", "trace-spans", "probe-out", "flows-out"}

// archTopology maps an -arch name to its topology.kind and quartz
// placement.
var archTopology = map[string]scenario.TopologySpec{
	"tree3":      {Kind: "tree3"},
	"tree2":      {Kind: "tree2"},
	"ring":       {Kind: "ring"},
	"core":       {Kind: "tree3", Quartz: "core"},
	"edge":       {Kind: "tree3", Quartz: "edge"},
	"edgecore":   {Kind: "tree3", Quartz: "both"},
	"jellyfish":  {Kind: "jellyfish"},
	"qjellyfish": {Kind: "jellyfish", Quartz: "edge"},
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
	topo, ok := archTopology[*archName]
	if !ok {
		return nil, fmt.Errorf("unknown architecture %q (see -h)", *archName)
	}
	spec := &scenario.SimSpec{
		Topology:   topo,
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
	doc := scenario.Doc{Schema: scenario.SchemaV1, Name: "quartzsim", Seed: *seed, Sim: spec}
	// Indented, so the line numbers in a validation error are those of
	// the document -dry-run prints.
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return scenario.Decode(data, "flags")
}

func main() {
	flag.Usage = usage
	flag.Parse()
	if *flagDoc {
		writeFlagDoc(os.Stdout)
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

// run produces the one document — from -scenario or from the setup
// flags — and executes it.
func run() error {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var file *scenario.File
	var err error
	if *scenarioPath != "" {
		for _, m := range docFlags {
			if set[m[0]] && !slices.Contains(sinkFlags, m[0]) {
				return usageError{fmt.Errorf("-%s and -scenario both describe the run; set %s in %s instead", m[0], m[1], *scenarioPath)}
			}
		}
		file, err = scenario.Load(*scenarioPath)
	} else {
		file, err = docFromFlags(set)
	}
	if err != nil {
		return usageError{err}
	}
	c, err := scenario.Compile(file)
	if err != nil {
		return usageError{err}
	}
	doc := c.Doc
	oneSim := doc.Sim != nil && doc.Sweep == nil
	for _, name := range sinkFlags {
		if set[name] && !oneSim {
			return usageError{fmt.Errorf("-%s writes one simulated network's output, but %s is a sweep or a registry experiment",
				name, file.Name)}
		}
	}
	if *probeOut != "" && (doc.Sim.Probes == nil || doc.Sim.Probes.QueueSampleUS == 0) { // oneSim: checked above
		return usageError{errors.New("-probe-out needs a queue sampler: -probe-interval, or sim.probes.queue_sample_us in the document")}
	}
	if *dryRun {
		plan := os.Stdout
		if *scenarioPath == "" { // the document alone on stdout, ready to save; the plan beside it
			var b bytes.Buffer
			json.Indent(&b, scenario.Canonical(doc), "", "  ")
			fmt.Println(b.String())
			plan = os.Stderr
		}
		params := c.Params.WithDefaults()
		fmt.Fprintf(plan, "scenario:   %s (%s)\n", doc.Name, file.Name)
		fmt.Fprintf(plan, "title:      %s\n", c.Experiment.Title)
		fmt.Fprintf(plan, "experiment: %s\n", c.Experiment.Name)
		fmt.Fprintf(plan, "params:     seed=%d trials=%d tasks=%d rpcs=%d\n", params.Seed, params.Trials, params.Tasks, params.RPCs)
		fmt.Fprintf(plan, "cache key:  %s\n", c.CacheKey())
		fmt.Fprintln(plan, "dry run: valid; not executing")
		return nil
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if !oneSim {
		out, err := c.Experiment.Run(ctx, c.Params.WithDefaults())
		fmt.Print(out.Text)
		return err
	}
	return runSim(ctx, stop, doc)
}

// emit writes one table to path, as JSON when the extension says so,
// and reports its rows as what.
func emit(path, what string, t table.Table) error {
	write := t.WriteCSV
	if strings.HasSuffix(path, ".json") {
		write = t.WriteJSON
	}
	return writeFile(path, what, t.Len(), write)
}

// writeFile writes n items of what to path with write, and reports it.
func writeFile(path, what string, n int, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := errors.Join(write(f), f.Close()); err != nil {
		return fmt.Errorf("writing %s: %w", what, err)
	}
	fmt.Printf("wrote %d %s to %s\n", n, what, path)
	return nil
}

// runSim executes a single-network document with the sink flags
// attached beside it: they observe the run, and everything they print
// comes after — never inside — the document's deterministic text.
func runSim(ctx context.Context, stopSignals func(), doc scenario.Doc) error {
	side := netsim.ObserveOptions{
		Trace: *traceOut != "", TraceLimit: *traceMax,
		Flows: *flowsOut != "",
	}
	if *spansOut != "" {
		side.Spans = trace.NewRecorder()
		if *flightRec {
			side.Spans = trace.NewFlightRecorder(flightRecorderSpans)
		}
	}
	s, err := scenario.NewSim(doc.Sim, doc.Seed, side)
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

	if *traceOut != "" {
		rec := s.Obs.Trace()
		if err := emit(*traceOut, "trace events", rec.Table()); err != nil {
			return err
		}
		if tr := rec.Truncated(); tr > 0 {
			fmt.Fprintf(os.Stderr,
				"quartzsim: warning: trace is INCOMPLETE: %d event(s) discarded by -trace-max %d; raise it or pass -trace-max 0\n",
				tr, *traceMax)
		}
	}
	if sampler := s.Obs.Sampler(); *probeOut != "" {
		if err := emit(*probeOut, "queue samples", sampler.Table()); err != nil {
			return err
		}
		if tr := sampler.Truncated(); tr > 0 {
			fmt.Fprintf(os.Stderr, "quartzsim: warning: queue samples are INCOMPLETE: %d row(s) past the bound discarded; sample less often\n", tr)
		}
	}
	if flows := s.Obs.Flows(); *flowsOut != "" {
		if err := emit(*flowsOut, "flow rows", flows.Table()); err != nil {
			return err
		}
	}
	if side.Spans != nil {
		meta := map[string]string{
			"tool": "quartzsim", "scenario": doc.Name, "arch": s.Arch.Name,
			"workload": doc.Sim.Workload.Kind, "seed": strconv.FormatInt(doc.Seed, 10),
		}
		write := func(w io.Writer) error { return side.Spans.WriteChrome(w, meta) }
		if err := writeFile(*spansOut, "execution spans", side.Spans.Len(), write); err != nil {
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
