package scenario

// The one runner: every front end that describes a packet-level run —
// quartzsim's flags, a -scenario file, a quartzd job — produces a
// SimSpec, and NewSim + Run execute it. The rendered text is a pure
// function of the document and the seed — a hard requirement for the
// result cache, where a cached body must equal what a re-execution
// would print. Anything wall-clock or file-shaped rides the side band
// (Sinks) and never reaches the text.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/metrics"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/trace"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// archParams sizes the design t selects.
func (t TopologySpec) archParams() core.ArchParams {
	return core.ArchParams{Pods: t.Pods, ToRsPerPod: t.TorsPerPod, HostsPerToR: t.HostsPerTor}
}

// design returns the core design t's kind and placement name.
func (t TopologySpec) design() (core.Design, bool) {
	return core.FindDesign(func(d core.Design) bool { return d.Kind == t.Kind && d.Quartz == t.Quartz })
}

// msTime converts virtual milliseconds (a scenario field) to sim.Time,
// rounding to the nearest picosecond: DurationMS(d) round-trips every
// whole-nanosecond d exactly, where truncation lost a picosecond on
// one value in 37.
func msTime(ms float64) sim.Time { return sim.Time(math.Round(ms * float64(sim.Millisecond))) }

// DurationMS converts a Go duration (a CLI flag) to the milliseconds a
// scenario field carries.
func DurationMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// resolveSwitch finds a fault target switch by name or numeric node ID.
func resolveSwitch(g *topology.Graph, target string) (topology.NodeID, error) {
	for _, s := range g.Switches() {
		if g.NodeName(s) == target {
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

// faultSchedule lowers a FaultsSpec onto netsim's fault injector types.
func faultSchedule(fs *FaultsSpec, g *topology.Graph) (netsim.FaultSchedule, error) {
	sched := netsim.FaultSchedule{
		DetectionDelay: msTime(fs.DetectMS),
		Policy:         netsim.DropInFlight,
	}
	if fs.Policy == "detour" {
		sched.Policy = netsim.DetourInFlight
	}
	for i, e := range fs.Events {
		ev := netsim.FaultEvent{At: msTime(e.AtMS), RepairAt: msTime(e.RepairMS)}
		switch e.Kind {
		case "link":
			ev.Kind = netsim.FaultLink
			ev.Link = topology.LinkID(e.Link)
		case "switch":
			ev.Kind = netsim.FaultSwitch
			id, err := resolveSwitch(g, e.Switch)
			if err != nil {
				return sched, fmt.Errorf("faults.events[%d]: %v", i, err)
			}
			ev.Switch = id
		case "fiber":
			ev.Kind = netsim.FaultFiber
			ev.Fiber = e.Fiber
			ev.Segment = e.Segment
		default:
			return sched, fmt.Errorf("faults.events[%d]: unknown kind %q", i, e.Kind)
		}
		sched.Events = append(sched.Events, ev)
	}
	return sched, nil
}

// Sinks attach observability beyond what a document asks for. They
// never change the rendered text.
type Sinks struct {
	// Trace records every packet's lifecycle; the caller builds it,
	// with its bound.
	Trace *netsim.TraceRecorder
	// Flows attaches a flow tracker even when the document's
	// probes.flows does not.
	Flows bool
	// Spans receives one virtual-time "flow" span per flow at the end
	// of Run (it implies Flows). Use a trace.NewFlightRecorder to bound
	// long runs.
	Spans *trace.Recorder
}

// Sim is one packet-level run, built and armed but not yet executed.
// After Run a caller reads the side-band views (Trace, Flows, Sampler,
// Net.Engine().Telemetry); each is nil when the run did not attach it.
type Sim struct {
	Arch *core.Architecture
	Net  *netsim.Network
	// Trace is Sinks.Trace.
	Trace *netsim.TraceRecorder
	// Flows is attached by probes.flows, Sinks.Flows or Sinks.Spans.
	Flows *netsim.FlowTracker
	// Sampler is attached by probes.queue_sample_us and ticks to the
	// end of the run.
	Sampler *netsim.QueueSampler

	sh      experiments.Shared
	pk      experiments.Packet
	spans   *trace.Recorder
	spec    *SimSpec
	groups  []latencyGroup
	summary string          // the workload half of the header line
	text    strings.Builder // fault log during the run, then the summary
}

// latencyGroup is one line of the per-task latency table: the harness
// tag it reads and the label it prints under.
type latencyGroup struct {
	label string
	tag   int
}

// taskKinds maps a generated workload onto the task loop's kinds.
var taskKinds = map[string]experiments.TaskKind{"scatter": experiments.ScatterKind, "gather": experiments.GatherKind,
	"scattergather": experiments.ScatterGatherKind, "permutation": experiments.PairsKind, "incast": experiments.PairsKind}

// NewSim builds spec, which must be normalized and validated (Decode
// does both), with sh.Build: the architecture from sh's memo (one of
// its own when the spec schedules faults, whose reconvergence reroutes
// it), the document's probes and the caller's sinks, the fault
// schedule, then the workload. A Sim outside a run passes the zero
// experiments.Shared.
func NewSim(sh experiments.Shared, spec *SimSpec, seed int64, sinks Sinks) (*Sim, error) {
	t := spec.Topology
	d, ok := t.design()
	if !ok {
		return nil, fmt.Errorf("scenario: no architecture for topology %q with quartz %q", t.Kind, t.Quartz)
	}
	fabric := experiments.Fabric{Name: d.Name, Seed: seed, Params: t.archParams()}
	if r := spec.Routing; r != nil && r.Policy == "vlb" {
		fabric.VLB = r.VLBFraction
	}
	memo := sh
	if spec.Faults != nil {
		memo = experiments.Shared{} // the faults reroute it: an architecture of its own
	}
	arch, err := memo.Arch(fabric)
	if err != nil {
		return nil, err
	}
	s := &Sim{Arch: arch, Trace: sinks.Trace, spans: sinks.Spans, spec: spec, sh: sh}
	run := experiments.PacketRun{Arch: arch, End: msTime(spec.DurationMS)}
	var probes []netsim.Probe
	if s.Trace != nil {
		probes = append(probes, s.Trace)
	}
	p := spec.Probes
	if sinks.Flows || s.spans != nil || (p != nil && p.Flows) {
		s.Flows = netsim.NewFlowTracker()
		probes = append(probes, s.Flows)
	}
	run.Probe = netsim.Probes(probes...)
	if p != nil {
		run.SampleEvery = sim.Time(p.QueueSampleUS) * sim.Microsecond
	}
	if spec.Faults != nil {
		sched, err := faultSchedule(spec.Faults, arch.Graph)
		if err != nil {
			return nil, err
		}
		run.Faults, run.OnFault = &sched, s.logFault
		fmt.Fprintf(&s.text, "fault schedule: %d event(s), detection %v, policy %s\n",
			len(sched.Events), sched.DetectionDelay, spec.Faults.Policy)
	}
	w := spec.Workload
	hosts := arch.Graph.Hosts()
	streams := w.Fanout
	if w.Kind != "replay" {
		run.Kind, run.Tasks, run.PPS, run.Size, run.Seed = taskKinds[w.Kind], w.Tasks, w.PPS, w.PacketSize, seed+1
	}
	s.pk, err = sh.Build(run, func(_ int, rng *rand.Rand) ([]topology.NodeID, [][2]topology.NodeID) {
		var pairs [][2]topology.NodeID
		switch w.Kind {
		case "permutation":
			pairs = traffic.RandomPermutation(hosts, rng)
		case "incast":
			pairs = traffic.Incast(hosts, w.Fanout, rng)
		default:
			members := make([]topology.NodeID, w.Fanout+1)
			for i, h := range rng.Perm(len(hosts))[:len(members)] {
				members[i] = hosts[h]
			}
			return members, nil
		}
		streams = len(pairs)
		return nil, pairs
	})
	if err != nil {
		return nil, err
	}
	s.Net, s.Sampler = s.pk.Net, s.pk.Sampler
	if w.Kind == "replay" {
		if err := s.replay(); err != nil {
			return nil, err
		}
		return s, nil
	}
	for i := 0; i < w.Tasks; i++ {
		s.groups = append(s.groups, latencyGroup{fmt.Sprintf("task %2d", i+1), 10 * (i + 1)})
	}
	s.summary = fmt.Sprintf("%d task(s), %d streams each at %.0f pps", w.Tasks, streams, w.PPS)
	return s, nil
}

// logFault writes one fault transition to the text.
func (s *Sim) logFault(c netsim.FaultChange) {
	if c.Reconverged {
		fmt.Fprintf(&s.text, "[%v] routes reconverged (%d links down)\n", c.At, c.DeadLinks)
		return
	}
	verb := "fail"
	if c.Repair {
		verb = "repair"
	}
	fmt.Fprintf(&s.text, "[%v] %s: %s (%d links, %d down)\n", c.At, verb, c.Event, len(c.Links), c.DeadLinks)
}

// replay starts the document's trace, after the probes and faults, and
// prints a latency line per tag.
func (s *Sim) replay() error {
	events, err := traffic.ParseTrace(strings.NewReader(s.spec.Workload.Trace))
	if err != nil {
		return err
	}
	n, err := traffic.Replay(s.Net, events)
	if err != nil {
		return err
	}
	seen := map[int]bool{}
	for _, ev := range events {
		if !seen[ev.Tag] {
			seen[ev.Tag] = true
			s.groups = append(s.groups, latencyGroup{fmt.Sprintf("tag %3d", ev.Tag), ev.Tag})
		}
	}
	sort.Slice(s.groups, func(i, j int) bool { return s.groups[i].tag < s.groups[j].tag })
	s.summary = fmt.Sprintf("%d trace events", n)
	return nil
}

// Run drives the event loop (experiments.Shared.Run) to the end of the
// run (duration plus a 2 ms drain), renders the deterministic summary
// and gives the network back to the run's free list — a Sim outside a
// run keeps it. A cancelled ctx stops the loop within a fixed number of
// events (sim.Engine.StopOn) — a quartzd timeout, Ctrl-C in quartzsim —
// and Run then returns the text of the simulated portion together with
// ctx.Err(): a job discards it, the CLI prints it and still writes its
// sinks.
func (s *Sim) Run(ctx context.Context) (string, error) {
	defer s.pk.Release()
	err := s.sh.WithContext(ctx).Run(s.Net, msTime(s.spec.DurationMS)+2*sim.Millisecond)
	s.flowSpans()
	s.render()
	return s.text.String(), err
}

// flowSpans renders the flow table onto the span recorder, if any (a
// side band: never the text): one "flow" span per flow in the "net"
// category, Track = flow ID, spanning FirstSend→LastActivity on the
// virtual clock, annotated with sent/delivered/dropped/bytes. Wall
// fields stay zero, so the Chrome export places them on the virtual
// timeline.
func (s *Sim) flowSpans() {
	if s.spans == nil {
		return
	}
	for _, f := range s.Flows.Flows() {
		s.spans.Add(trace.Span{
			Name: "flow", Cat: "net", Track: int(f.Flow),
			Virt: int64(f.FirstSend), VirtEnd: int64(f.LastActivity),
		}.
			Annotate("sent", int64(f.PacketsSent)).
			Annotate("delivered", int64(f.PacketsDelivered)).
			Annotate("dropped", int64(f.PacketsDropped)).
			Annotate("bytes", int64(f.BytesDelivered)))
	}
}

// render appends the end-of-run summary to the text.
func (s *Sim) render() {
	b, spec, g := &s.text, s.spec, s.Arch.Graph
	fmt.Fprintf(b, "%s | %s | %s | %g ms\n", s.Arch.Name, spec.Workload.Kind, s.summary, spec.DurationMS)
	fmt.Fprintf(b, "delivered %d packets, dropped %d\n", s.Net.Delivered(), s.Net.Dropped())
	for _, gr := range s.groups {
		st := s.pk.Harness.Latency(gr.tag)
		if st.N() == 0 {
			continue
		}
		fmt.Fprintf(b, "%s: n=%-8d mean %8.2fus ±%.2f  min %.2f  max %.2f\n",
			gr.label, st.N(), st.Mean(), st.CI95(), st.Min(), st.Max())
	}
	p := spec.Probes
	if p == nil {
		return
	}
	if p.Flows {
		fct := metrics.NewLatencyHistogram()
		flows := s.Flows.Flows()
		for _, f := range flows {
			fct.Observe(f.FCT.Micros())
		}
		if len(flows) > 0 {
			fmt.Fprintf(b, "flows: %d tracked | FCT p50 %.1fus p99 %.1fus max %.1fus\n",
				len(flows), fct.Quantile(0.50), fct.Quantile(0.99), fct.Max())
		}
	}
	if p.HotPorts > 0 {
		fmt.Fprintf(b, "hottest ports (by bytes):\n")
		for _, ps := range s.Net.HottestPorts(p.HotPorts) {
			to := g.Link(ps.Link).Other(ps.From)
			fmt.Fprintf(b, "  %-10s -> %-10s  %8d pkts %10d B  util %5.1f%%  drops %d\n",
				g.NodeName(ps.From), g.NodeName(to), ps.Packets, ps.Bytes,
				100*ps.Utilization(s.Net.Engine().Now()), ps.Drops)
		}
	}
	if sampler := s.Sampler; sampler != nil {
		type portPeak struct {
			name string
			peak int
			mean float64
			n    int64
		}
		var peaks []portPeak
		for i := 0; i < g.NumLinks(); i++ {
			l := g.Link(topology.LinkID(i))
			for _, from := range []topology.NodeID{l.A, l.B} {
				ref := netsim.PortRef{Link: l.ID, From: from}
				st := sampler.DepthStats(ref)
				peaks = append(peaks, portPeak{
					name: fmt.Sprintf("%-10s -> %-10s", g.NodeName(from), g.NodeName(l.Other(from))),
					peak: sampler.PeakDepth(ref), mean: st.Mean(), n: st.N(),
				})
			}
		}
		sort.Slice(peaks, func(i, j int) bool {
			if peaks[i].peak != peaks[j].peak {
				return peaks[i].peak > peaks[j].peak
			}
			return peaks[i].name < peaks[j].name
		})
		show := min(5, len(peaks))
		fmt.Fprintf(b, "queue depth by port (sampled every %d us; deepest %d):\n", p.QueueSampleUS, show)
		for _, pp := range peaks[:show] {
			fmt.Fprintf(b, "  %s  peak %7d B  mean %9.1f B over %d samples\n", pp.name, pp.peak, pp.mean, pp.n)
		}
	}
}
