// Command quartzsim runs ad-hoc packet-level simulations on the
// architectures of the paper: pick a design, a workload, and a load
// level, and get latency statistics, the hottest ports, and — on
// request — per-packet traces and periodic queue-depth samples.
//
// Usage:
//
//	quartzsim [-arch NAME] [-workload scatter|gather|scattergather|permutation|replay]
//	          [-replay FILE] [-tasks N] [-pps N] [-fanout N] [-ms N] [-seed N] [-hot N]
//	          [-fail SPEC] [-fail-detect DUR] [-fail-policy drop|detour]
//	          [-trace FILE] [-trace-max N] [-trace-spans FILE] [-flight-recorder]
//	          [-probe-interval US] [-probe-out FILE]
//	          [-metrics-addr HOST:PORT] [-metrics-out FILE]
//	          [-metrics-interval US] [-flows-out FILE]
//	quartzsim -scenario FILE [-dry-run]
//
// The second form runs a declarative scenario document (JSON or TOML;
// the format reference is SCENARIOS.md) through internal/scenario:
// -dry-run stops after validation and prints the compiled plan —
// experiment identity, parameters, and the result-cache key quartzd
// would use. The full flag reference is generated from one source of
// truth; -flagdoc prints it as Markdown (run `quartzsim -h` for the
// grouped terminal form).
//
// Architectures: tree3 (three-tier), tree2 (two-tier), ring (single
// Quartz ring), core (Quartz in core), edge (Quartz in edge), edgecore
// (Quartz in edge and core), jellyfish, qjellyfish (Quartz rings in a
// Jellyfish graph).
//
// Fault injection: -fail schedules failures at virtual times mid-run.
// SPEC is semicolon-separated clauses of the form
// kind:target@time[,repair@time], where kind:target is one of
// link:<id>, switch:<name-or-id>, or fiber:<fiber>.<segment> (fiber
// cuts need -arch ring), and times are Go durations from the start of
// the run. Example:
//
//	-fail 'link:3@2ms,repair@10ms;fiber:0.1@5ms'
//
// Routes reconverge -fail-detect after each transition; -fail-policy
// picks whether packets queued on a cut link are dropped or detoured.
//
// Observability: -trace records every packet's lifecycle
// (enqueue/transmit/deliver/drop) to FILE; -probe-interval samples every
// directed link's queue depth and utilization each US microseconds of
// virtual time, written to -probe-out. Both emit CSV, or JSON when the
// file name ends in .json. -trace-spans records execution spans — one
// Perfetto track per flow — as Chrome trace-event JSON; -flight-recorder
// bounds it to the most recent spans so a long run keeps a black box
// instead of an unbounded log. A run-telemetry summary (events processed,
// peak calendar size, wall-clock event rate) always prints at the end.
// SIGINT/SIGTERM stop the event loop cleanly: the run ends at the
// current virtual time and every requested output is still written,
// covering the simulated portion.
//
// Metrics: -metrics-addr serves a live HTTP endpoint while the run
// executes — /metrics is the Prometheus text format, /status (and /) a
// JSON run-status page — so a multi-minute simulation can be watched
// mid-flight. -metrics-out streams NDJSON registry snapshots (one line
// per series per heartbeat) to a file; -metrics-interval sets the
// heartbeat cadence in virtual microseconds. -flows-out writes the
// per-flow table (FCT, bytes, retransmits, drop attribution) at the
// end of the run, as CSV or JSON by extension. Any of these flags
// enables the metrics registry, the engine heartbeat, and the
// FlowTracker probe.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/metrics"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/scenario"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/trace"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// flightRecorderSpans bounds the -flight-recorder ring: the last few
// thousand flows of a long run.
const flightRecorderSpans = 4096

var (
	scenarioPath = flag.String("scenario", "", "run a declarative scenario file (JSON or TOML, see SCENARIOS.md) instead of flag-driven setup")
	dryRun       = flag.Bool("dry-run", false, "with -scenario: parse, validate, and print the compiled plan without running")

	archName   = flag.String("arch", "edgecore", "architecture: tree3, tree2, ring, core, edge, edgecore, jellyfish, qjellyfish")
	workload   = flag.String("workload", "scatter", "workload: scatter, gather, scattergather, permutation, replay")
	replay     = flag.String("replay", "", "CSV trace file to replay (workload=replay): at_us,src,dst,size[,flow[,tag]]")
	failLink   = flag.Int("faillink", -1, "fail this link ID at the start of the run (deprecated; see -fail)")
	failSpec   = flag.String("fail", "", "fault schedule: 'kind:target@time[,repair@time];...' e.g. 'link:3@2ms,repair@10ms'")
	failDetect = flag.Duration("fail-detect", time.Millisecond, "detection delay before routes reconverge around a fault")
	failPolicy = flag.String("fail-policy", "drop", "in-flight packets on a cut link: drop or detour")
	tasks      = flag.Int("tasks", 4, "concurrent tasks")
	pps        = flag.Float64("pps", 20e3, "packets per second per stream")
	fanout     = flag.Int("fanout", 12, "receivers (or senders) per task")
	ms         = flag.Int("ms", 10, "measured milliseconds of virtual time")
	seed       = flag.Int64("seed", 1, "random seed")
	hot        = flag.Int("hot", 5, "show the N hottest ports")

	traceOut  = flag.String("trace", "", "record per-packet lifecycle events to this file (CSV, or JSON if it ends in .json)")
	traceMax  = flag.Int("trace-max", 100_000, "keep at most N trace events (0 = unbounded)")
	spansOut  = flag.String("trace-spans", "", "record execution spans (flow lifetimes) and write Chrome trace-event JSON to this file (open in Perfetto)")
	flightRec = flag.Bool("flight-recorder", false, "bound the span recorder to the most recent spans (with -trace-spans): a black box for long runs")
	probeUS   = flag.Int64("probe-interval", 0, "sample queue depth/utilization every N microseconds (0 = off)")
	probeOut  = flag.String("probe-out", "", "write queue samples to this file (CSV, or JSON if it ends in .json); default: per-port summary on stdout")
	telemetry = flag.Bool("telemetry", true, "print the run-telemetry summary")

	metricsAddr = flag.String("metrics-addr", "", "serve live metrics over HTTP on this address (/metrics Prometheus text, /status JSON)")
	metricsOut  = flag.String("metrics-out", "", "stream NDJSON registry snapshots to this file, one per heartbeat")
	metricsUS   = flag.Int64("metrics-interval", 100, "heartbeat/snapshot cadence in virtual microseconds")
	flowsOut    = flag.String("flows-out", "", "write the per-flow telemetry table to this file (CSV, or JSON if it ends in .json)")
)

// emit writes obs to path, picking JSON when the extension says so.
func emit(path string, writeCSV, writeJSON func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return writeJSON(f)
	}
	return writeCSV(f)
}

// parseSimTime converts a Go duration string to virtual time.
func parseSimTime(s string) (sim.Time, error) {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative time %v", d)
	}
	return sim.Time(d.Nanoseconds()) * sim.Nanosecond, nil
}

// findSwitch resolves a -fail switch target: a switch name or a numeric
// node ID.
func findSwitch(g *topology.Graph, target string) (topology.NodeID, error) {
	for _, s := range g.Switches() {
		if g.Node(s).Name == target {
			return s, nil
		}
	}
	if id, err := strconv.Atoi(target); err == nil && id >= 0 && id < g.NumNodes() {
		if g.Node(topology.NodeID(id)).Kind == topology.Switch {
			return topology.NodeID(id), nil
		}
	}
	return 0, fmt.Errorf("no switch %q", target)
}

// parseFailSpec parses the -fail grammar: semicolon-separated clauses
// of kind:target@time[,repair@time].
func parseFailSpec(spec string, g *topology.Graph) ([]netsim.FaultEvent, error) {
	var events []netsim.FaultEvent
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		main, repairPart, hasRepair := strings.Cut(clause, ",")
		kindTarget, atStr, ok := strings.Cut(main, "@")
		if !ok {
			return nil, fmt.Errorf("clause %q: missing @time", clause)
		}
		var ev netsim.FaultEvent
		var err error
		if ev.At, err = parseSimTime(atStr); err != nil {
			return nil, fmt.Errorf("clause %q: bad time: %v", clause, err)
		}
		if hasRepair {
			rs, ok := strings.CutPrefix(strings.TrimSpace(repairPart), "repair@")
			if !ok {
				return nil, fmt.Errorf("clause %q: expected repair@time after the comma", clause)
			}
			if ev.RepairAt, err = parseSimTime(rs); err != nil {
				return nil, fmt.Errorf("clause %q: bad repair time: %v", clause, err)
			}
		}
		kind, target, ok := strings.Cut(strings.TrimSpace(kindTarget), ":")
		if !ok {
			return nil, fmt.Errorf("clause %q: expected kind:target", clause)
		}
		switch kind {
		case "link":
			id, err := strconv.Atoi(target)
			if err != nil {
				return nil, fmt.Errorf("clause %q: bad link ID %q", clause, target)
			}
			ev.Kind = netsim.FaultLink
			ev.Link = topology.LinkID(id)
		case "switch":
			ev.Kind = netsim.FaultSwitch
			if ev.Switch, err = findSwitch(g, target); err != nil {
				return nil, fmt.Errorf("clause %q: %v", clause, err)
			}
		case "fiber":
			fs, ss, ok := strings.Cut(target, ".")
			if !ok {
				return nil, fmt.Errorf("clause %q: fiber target must be <fiber>.<segment>", clause)
			}
			if ev.Fiber, err = strconv.Atoi(fs); err != nil {
				return nil, fmt.Errorf("clause %q: bad fiber %q", clause, fs)
			}
			if ev.Segment, err = strconv.Atoi(ss); err != nil {
				return nil, fmt.Errorf("clause %q: bad segment %q", clause, ss)
			}
			ev.Kind = netsim.FaultFiber
		default:
			return nil, fmt.Errorf("clause %q: unknown fault kind %q (link, switch, fiber)", clause, kind)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("-fail %q: no clauses", spec)
	}
	return events, nil
}

func buildArch() (*core.Architecture, error) {
	rng := rand.New(rand.NewSource(*seed))
	p := core.ArchParams{}
	switch *archName {
	case "tree3":
		return core.ThreeTierTree(p)
	case "tree2":
		return core.TwoTierTreeArch(p)
	case "ring":
		return core.QuartzRingArch(p)
	case "core":
		return core.QuartzInCore(p)
	case "edge":
		return core.QuartzInEdge(p)
	case "edgecore":
		return core.QuartzInEdgeAndCore(p)
	case "jellyfish":
		return core.Jellyfish(p, rng)
	case "qjellyfish":
		return core.QuartzInJellyfish(p, rng)
	default:
		return nil, fmt.Errorf("unknown architecture %q", *archName)
	}
}

// runScenario is the -scenario path: load, compile, and either print
// the plan (-dry-run) or execute the compiled experiment.
func runScenario(path string, dry bool) int {
	f, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quartzsim: %v\n", err)
		return 2
	}
	c, err := scenario.Compile(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quartzsim: %v\n", err)
		return 2
	}
	params := c.Params.WithDefaults()
	if dry {
		fmt.Printf("scenario:   %s (%s)\n", c.Doc.Name, path)
		fmt.Printf("title:      %s\n", c.Experiment.Title)
		fmt.Printf("experiment: %s\n", c.Experiment.Name)
		fmt.Printf("params:     seed=%d trials=%d tasks=%d rpcs=%d\n",
			params.Seed, params.Trials, params.Tasks, params.RPCs)
		fmt.Printf("cache key:  %s\n", c.CacheKey())
		fmt.Println("dry run: valid; not executing")
		return 0
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := c.Experiment.Run(ctx, params)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quartzsim: %v\n", err)
		return 1
	}
	fmt.Print(out.Text)
	return 0
}

func main() {
	flag.Usage = usage
	flag.Parse()
	if *flagDoc {
		writeFlagDoc(os.Stdout)
		return
	}
	if *scenarioPath != "" {
		os.Exit(runScenario(*scenarioPath, *dryRun))
	}
	if *dryRun {
		fmt.Fprintln(os.Stderr, "quartzsim: -dry-run needs -scenario FILE")
		os.Exit(2)
	}
	arch, err := buildArch()
	if err != nil {
		fmt.Fprintf(os.Stderr, "quartzsim: %v\n", err)
		os.Exit(2)
	}
	h := traffic.NewHarness()
	net, err := netsim.New(netsim.Config{
		Graph:       arch.Graph,
		Router:      arch.Router,
		SwitchModel: arch.Model,
		OnDeliver:   h.Deliver,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "quartzsim: %v\n", err)
		os.Exit(1)
	}
	rng := rand.New(rand.NewSource(*seed + 1))
	hosts := arch.Graph.Hosts()
	end := sim.Time(*ms) * sim.Millisecond

	runEnd := end + 2*sim.Millisecond

	// All observability attaches through Network.Observe.
	oo := netsim.ObserveOptions{}
	if *traceOut != "" {
		oo.Trace, oo.TraceLimit = true, *traceMax
	}
	var spans *trace.Recorder
	if *spansOut != "" {
		if *flightRec {
			spans = trace.NewFlightRecorder(flightRecorderSpans)
		} else {
			spans = trace.NewRecorder()
		}
		oo.Spans = spans
		oo.Flows = true // flow spans render from the flow table
	}
	var reg *metrics.Registry
	if *metricsAddr != "" || *metricsOut != "" || *flowsOut != "" {
		if *metricsUS <= 0 {
			fmt.Fprintln(os.Stderr, "quartzsim: -metrics-interval must be positive")
			os.Exit(2)
		}
		reg = metrics.NewRegistry()
		oo.Flows = true
		oo.Registry = reg
		oo.HeartbeatEvery = sim.Time(*metricsUS) * sim.Microsecond
	}
	if *probeUS > 0 {
		oo.SampleEvery = sim.Time(*probeUS) * sim.Microsecond
	} else if *probeOut != "" {
		fmt.Fprintln(os.Stderr, "quartzsim: -probe-out has no effect without -probe-interval")
	}
	if oo.SampleEvery > 0 || oo.HeartbeatEvery > 0 {
		oo.Until = runEnd
	}
	obs := net.Observe(oo)
	sampler := obs.Sampler()

	var exporter *metrics.NDJSONExporter
	var metricsFile *os.File
	if reg != nil {
		if *metricsOut != "" {
			metricsFile, err = os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "quartzsim: %v\n", err)
				os.Exit(1)
			}
			exporter = metrics.NewNDJSONExporter(metricsFile)
			obs.Heartbeat().OnTick = func(at sim.Time) {
				if err := exporter.Export(int64(at), reg.Snapshot()); err != nil {
					fmt.Fprintf(os.Stderr, "quartzsim: writing metrics: %v\n", err)
					os.Exit(1)
				}
			}
		}
		if *metricsAddr != "" {
			errc := make(chan error, 1)
			metrics.Serve(*metricsAddr, reg, metrics.StatusMeta{
				"arch":     *archName,
				"workload": *workload,
				"tasks":    strconv.Itoa(*tasks),
				"ms":       strconv.Itoa(*ms),
				"seed":     strconv.FormatInt(*seed, 10),
			}, errc)
			go func() {
				if err := <-errc; err != nil && err != http.ErrServerClosed {
					fmt.Fprintf(os.Stderr, "quartzsim: metrics server: %v\n", err)
				}
			}()
			fmt.Printf("serving live metrics on http://%s/metrics (status: /status)\n", *metricsAddr)
		}
	}

	pick := func(k int) []topology.NodeID {
		perm := rng.Perm(len(hosts))
		out := make([]topology.NodeID, 0, k)
		for _, i := range perm[:k] {
			out = append(out, hosts[i])
		}
		return out
	}

	var tags []int
	startTask := func(tag int) error {
		members := pick(*fanout + 1)
		sender, rest := members[0], members[1:]
		var t *traffic.Task
		switch *workload {
		case "scatter":
			t = traffic.Scatter(net, sender, rest, *pps, tag, arch.VLB, rng)
		case "gather":
			t = traffic.Gather(net, rest, sender, *pps, tag, arch.VLB, rng)
		case "scattergather":
			t = traffic.ScatterGather(net, h, sender, rest, *pps, tag, tag+1, arch.VLB, rng)
		case "replay":
			if *replay == "" {
				return fmt.Errorf("-workload replay requires -replay FILE")
			}
			f, err := os.Open(*replay)
			if err != nil {
				return err
			}
			defer f.Close()
			events, err := traffic.ParseTrace(f)
			if err != nil {
				return err
			}
			n, err := traffic.Replay(net, events)
			if err != nil {
				return err
			}
			fmt.Printf("replaying %d trace events from %s\n", n, *replay)
			tags = append(tags, 1) // ParseTrace defaults tags to 1
			return nil
		case "permutation":
			t = &traffic.Task{}
			pairs := traffic.RandomPermutation(hosts, rng)
			for i, pr := range pairs {
				s := &traffic.Stream{
					Net: net, Src: pr[0], Dst: pr[1],
					Flow: routing.FlowID(1<<20 + i), RatePPS: *pps, Tag: tag,
					Rand: rand.New(rand.NewSource(rng.Int63())),
				}
				t.Add(s)
			}
		default:
			return fmt.Errorf("unknown workload %q", *workload)
		}
		tags = append(tags, tag)
		return t.Start(end)
	}
	if *failLink >= 0 {
		if err := net.FailLink(topology.LinkID(*failLink)); err != nil {
			fmt.Fprintf(os.Stderr, "quartzsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("link %d failed for the whole run\n", *failLink)
	}
	if *failSpec != "" {
		events, err := parseFailSpec(*failSpec, arch.Graph)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quartzsim: %v\n", err)
			os.Exit(2)
		}
		var policy netsim.ReroutePolicy
		switch *failPolicy {
		case "drop":
			policy = netsim.DropInFlight
		case "detour":
			policy = netsim.DetourInFlight
		default:
			fmt.Fprintf(os.Stderr, "quartzsim: unknown -fail-policy %q (drop or detour)\n", *failPolicy)
			os.Exit(2)
		}
		fi := net.Faults()
		if arch.Ring != nil {
			if _, err := arch.Ring.AttachFaults(net); err != nil {
				fmt.Fprintf(os.Stderr, "quartzsim: %v\n", err)
				os.Exit(1)
			}
		}
		fi.OnChange = func(c netsim.FaultChange) {
			if c.Reconverged {
				fmt.Printf("[%v] routes reconverged (%d links down)\n", c.At, c.DeadLinks)
				return
			}
			verb := "fail"
			if c.Repair {
				verb = "repair"
			}
			fmt.Printf("[%v] %s: %s (%d links, %d down)\n", c.At, verb, c.Event, len(c.Links), c.DeadLinks)
		}
		detect := sim.Time(failDetect.Nanoseconds()) * sim.Nanosecond
		if err := fi.Apply(netsim.FaultSchedule{
			Events:         events,
			DetectionDelay: detect,
			Policy:         policy,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "quartzsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("fault schedule: %d event(s), detection %v, policy %s\n", len(events), detect, *failPolicy)
	}
	n := *tasks
	if *workload == "permutation" || *workload == "replay" {
		n = 1
	}
	for i := 0; i < n; i++ {
		if err := startTask(10 * (i + 1)); err != nil {
			fmt.Fprintf(os.Stderr, "quartzsim: %v\n", err)
			os.Exit(1)
		}
	}
	// SIGINT/SIGTERM stop the event loop at the next watchdog tick
	// instead of killing the process: the partial run still flows into
	// every requested output (trace, samples, flows, metrics), so a
	// long simulation interrupted mid-write stays usable.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	eng := net.Engine()
	const watchdogEvery = 100 * sim.Microsecond
	var interruptedAt sim.Time
	var watchdog func()
	watchdog = func() {
		if ctx.Err() != nil {
			interruptedAt = eng.Now()
			eng.Stop()
			return
		}
		eng.After(watchdogEvery, watchdog)
	}
	eng.After(watchdogEvery, watchdog)

	net.RunUntil(runEnd)
	if interruptedAt > 0 {
		stopSignals() // a second signal now kills immediately
		fmt.Fprintf(os.Stderr,
			"quartzsim: interrupted at virtual time %v; writing partial outputs\n", interruptedAt)
	}

	fmt.Printf("%s | %s | %d task(s), %d streams each at %.0f pps | %d ms\n",
		arch.Name, *workload, n, *fanout, *pps, *ms)
	fmt.Printf("delivered %d packets, dropped %d\n\n", net.Delivered(), net.Dropped())
	for _, tag := range tags {
		s := h.Latency(tag)
		if s.N() == 0 {
			continue
		}
		fmt.Printf("task %2d: n=%-8d mean %8.2fus ±%.2f  min %.2f  max %.2f\n",
			tag/10, s.N(), s.Mean(), s.CI95(), s.Min(), s.Max())
	}
	if *hot > 0 {
		fmt.Printf("\nhottest ports (by bytes):\n")
		for _, ps := range net.HottestPorts(*hot) {
			from := arch.Graph.Node(ps.From)
			l := arch.Graph.Link(ps.Link)
			to := arch.Graph.Node(l.Other(ps.From))
			fmt.Printf("  %-10s -> %-10s  %8d pkts %10d B  util %5.1f%%  drops %d\n",
				from.Name, to.Name, ps.Packets, ps.Bytes,
				100*ps.Utilization(eng.Now()), ps.Drops)
		}
	}

	if *traceOut != "" {
		recorder := obs.Trace()
		if err := emit(*traceOut, recorder.WriteCSV, recorder.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "quartzsim: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d trace events to %s", len(recorder.Events()), *traceOut)
		if tr := recorder.Truncated(); tr > 0 {
			fmt.Printf(" (%d more dropped by -trace-max %d)", tr, *traceMax)
			fmt.Fprintf(os.Stderr,
				"quartzsim: warning: trace is INCOMPLETE: %d event(s) discarded by -trace-max %d; raise it or pass -trace-max 0\n",
				tr, *traceMax)
		}
		fmt.Println()
	}
	if sampler != nil {
		if *probeOut != "" {
			if err := emit(*probeOut, sampler.WriteCSV, sampler.WriteJSON); err != nil {
				fmt.Fprintf(os.Stderr, "quartzsim: writing samples: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %d queue samples to %s\n", len(sampler.Samples()), *probeOut)
		} else {
			// No output file: summarize the deepest queues inline.
			fmt.Printf("\nqueue depth by port (sampled every %d us; deepest %d):\n", *probeUS, *hot)
			type portPeak struct {
				ref  netsim.PortRef
				peak int
			}
			peaks := make([]portPeak, 0, arch.Graph.NumLinks()*2)
			for i := 0; i < arch.Graph.NumLinks(); i++ {
				l := arch.Graph.Link(topology.LinkID(i))
				for _, from := range []topology.NodeID{l.A, l.B} {
					ref := netsim.PortRef{Link: l.ID, From: from}
					peaks = append(peaks, portPeak{ref, sampler.PeakDepth(ref)})
				}
			}
			for i := 0; i < len(peaks); i++ { // selection sort: tiny n
				max := i
				for j := i + 1; j < len(peaks); j++ {
					if peaks[j].peak > peaks[max].peak {
						max = j
					}
				}
				peaks[i], peaks[max] = peaks[max], peaks[i]
			}
			shown := *hot
			if shown > len(peaks) {
				shown = len(peaks)
			}
			for _, pp := range peaks[:shown] {
				st := sampler.DepthStats(pp.ref)
				from := arch.Graph.Node(pp.ref.From)
				to := arch.Graph.Node(arch.Graph.Link(pp.ref.Link).Other(pp.ref.From))
				fmt.Printf("  %-10s -> %-10s  peak %7d B  mean %9.1f B over %d samples\n",
					from.Name, to.Name, pp.peak, st.Mean(), st.N())
			}
		}
	}
	if reg != nil {
		flows := obs.Flows()
		fct := metrics.NewLatencyHistogram()
		n := flows.FCTStats(fct)
		if n > 0 {
			fmt.Printf("\nflows: %d tracked | FCT p50 %.1fus p99 %.1fus max %.1fus\n",
				n, fct.Quantile(0.50), fct.Quantile(0.99), fct.Max())
		}
		if *flowsOut != "" {
			if err := emit(*flowsOut, flows.WriteCSV, flows.WriteJSON); err != nil {
				fmt.Fprintf(os.Stderr, "quartzsim: writing flows: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %d flow rows to %s\n", flows.NumFlows(), *flowsOut)
		}
	}
	if exporter != nil {
		// Final snapshot so the stream always ends with end-of-run state.
		if err := exporter.Export(int64(eng.Now()), reg.Snapshot()); err == nil {
			err = metricsFile.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "quartzsim: writing metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d metrics snapshots to %s\n", exporter.Snapshots(), *metricsOut)
	}
	if spans != nil {
		nflows := obs.FlowSpans()
		f, err := os.Create(*spansOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quartzsim: %v\n", err)
			os.Exit(1)
		}
		err = spans.WriteChrome(f, map[string]string{
			"tool":     "quartzsim",
			"arch":     *archName,
			"workload": *workload,
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "quartzsim: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d execution spans (%d flow tracks) to %s\n", spans.Len(), nflows, *spansOut)
	}
	if *telemetry {
		fmt.Printf("\ntelemetry: %s\n", net.Telemetry())
	}
}
