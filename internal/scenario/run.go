package scenario

// The sim runner: executes a SimSpec the way cmd/quartzsim would, but
// renders only virtual-time-derived statistics, so the output of a
// scenario is a pure function of the document and the seed — a hard
// requirement for the result cache, where a cached body must equal
// what a re-execution would print.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/metrics"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/trace"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// BuildArch constructs the architecture a TopologySpec selects, sized
// by its dimensions and routed per the RoutingSpec. rng feeds the
// random graphs (jellyfish); pass a seeded source for reproducibility.
func BuildArch(t TopologySpec, r *RoutingSpec, rng *rand.Rand) (*core.Architecture, error) {
	p := core.ArchParams{Pods: t.Pods, ToRsPerPod: t.TorsPerPod, HostsPerToR: t.HostsPerTor}
	var arch *core.Architecture
	var err error
	switch t.Kind + "/" + t.Quartz {
	case "tree2/none":
		arch, err = core.TwoTierTreeArch(p)
	case "tree3/none":
		arch, err = core.ThreeTierTree(p)
	case "tree3/edge":
		arch, err = core.QuartzInEdge(p)
	case "tree3/core":
		arch, err = core.QuartzInCore(p)
	case "tree3/both":
		arch, err = core.QuartzInEdgeAndCore(p)
	case "ring/none":
		arch, err = core.QuartzRingArch(p)
	case "jellyfish/none":
		arch, err = core.Jellyfish(p, rng)
	case "jellyfish/edge":
		arch, err = core.QuartzInJellyfish(p, rng)
	default:
		return nil, fmt.Errorf("scenario: no architecture for topology %q with quartz %q", t.Kind, t.Quartz)
	}
	if err != nil {
		return nil, err
	}
	if r != nil && r.Policy == "vlb" {
		arch, err = arch.WithVLB(r.VLBFraction)
		if err != nil {
			return nil, err
		}
	}
	return arch, nil
}

// msTime converts virtual milliseconds (a scenario field) to sim.Time.
func msTime(ms float64) sim.Time { return sim.Time(ms * float64(sim.Millisecond)) }

// resolveSwitch finds a fault target switch by name or numeric node ID.
func resolveSwitch(g *topology.Graph, target string) (topology.NodeID, error) {
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

// runSim executes one SimSpec and renders the deterministic summary.
// rec, when non-nil and the document sets probes.trace_spans, receives
// execution spans (flow lifetimes) as a side channel.
func runSim(ctx context.Context, spec *SimSpec, seed int64, rec *trace.Recorder) (string, error) {
	arch, err := BuildArch(spec.Topology, spec.Routing, rand.New(rand.NewSource(seed)))
	if err != nil {
		return "", err
	}
	h := traffic.NewHarness()
	net, err := netsim.New(netsim.Config{
		Graph:       arch.Graph,
		Router:      arch.Router,
		SwitchModel: arch.Model,
		OnDeliver:   h.Deliver,
	})
	if err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	hosts := arch.Graph.Hosts()
	end := msTime(spec.DurationMS)
	runEnd := end + 2*sim.Millisecond

	var b strings.Builder

	// Observability rides the consolidated attach surface.
	var obs *netsim.Observer
	var sampler *netsim.QueueSampler
	tracing := spec.Probes != nil && spec.Probes.TraceSpans && rec != nil
	if p := spec.Probes; p != nil && (p.Flows || p.QueueSampleUS > 0 || tracing) {
		oo := netsim.ObserveOptions{Flows: p.Flows || tracing}
		if p.QueueSampleUS > 0 {
			oo.SampleEvery = sim.Time(p.QueueSampleUS) * sim.Microsecond
			oo.Until = end
		}
		if tracing {
			oo.Spans = rec
		}
		obs = net.Observe(oo)
		sampler = obs.Sampler()
	}

	if spec.Faults != nil {
		sched, err := faultSchedule(spec.Faults, arch.Graph)
		if err != nil {
			return "", err
		}
		fi := net.Faults()
		if arch.Ring != nil {
			if _, err := arch.Ring.AttachFaults(net); err != nil {
				return "", err
			}
		}
		fi.OnChange = func(c netsim.FaultChange) {
			if c.Reconverged {
				fmt.Fprintf(&b, "[%v] routes reconverged (%d links down)\n", c.At, c.DeadLinks)
				return
			}
			verb := "fail"
			if c.Repair {
				verb = "repair"
			}
			fmt.Fprintf(&b, "[%v] %s: %s (%d links, %d down)\n", c.At, verb, c.Event, len(c.Links), c.DeadLinks)
		}
		if err := fi.Apply(sched); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "fault schedule: %d event(s), detection %v, policy %s\n",
			len(sched.Events), sched.DetectionDelay, spec.Faults.Policy)
	}

	w := spec.Workload
	pick := func(k int) []topology.NodeID {
		perm := rng.Perm(len(hosts))
		out := make([]topology.NodeID, 0, k)
		for _, i := range perm[:k] {
			out = append(out, hosts[i])
		}
		return out
	}
	startPairs := func(pairs [][2]topology.NodeID, tag int) error {
		t := &traffic.Task{}
		for i, pr := range pairs {
			t.Add(&traffic.Stream{
				Net: net, Src: pr[0], Dst: pr[1],
				Flow: routing.FlowID(1<<20 + i), RatePPS: w.PPS,
				Size: w.PacketSize, Tag: tag, VLB: arch.VLB,
				Rand: rand.New(rand.NewSource(rng.Int63())),
			})
		}
		return t.Start(end)
	}

	var tags []int
	streams := w.Fanout
	for i := 0; i < w.Tasks; i++ {
		tag := 10 * (i + 1)
		var t *traffic.Task
		switch w.Kind {
		case "scatter", "gather", "scattergather":
			members := pick(w.Fanout + 1)
			sender, rest := members[0], members[1:]
			switch w.Kind {
			case "scatter":
				t = traffic.Scatter(net, sender, rest, w.PPS, tag, arch.VLB, rng)
			case "gather":
				t = traffic.Gather(net, rest, sender, w.PPS, tag, arch.VLB, rng)
			case "scattergather":
				t = traffic.ScatterGather(net, h, sender, rest, w.PPS, tag, tag+1, arch.VLB, rng)
			}
			t.SetSize(w.PacketSize)
			if err := t.Start(end); err != nil {
				return "", err
			}
		case "permutation":
			pairs := traffic.RandomPermutation(hosts, rng)
			streams = len(pairs)
			if err := startPairs(pairs, tag); err != nil {
				return "", err
			}
		case "incast":
			pairs := traffic.Incast(hosts, w.Fanout, rng)
			streams = len(pairs)
			if err := startPairs(pairs, tag); err != nil {
				return "", err
			}
		default:
			return "", fmt.Errorf("unknown workload %q", w.Kind)
		}
		tags = append(tags, tag)
	}

	// Stop the event loop promptly when the submission is cancelled
	// (quartzd timeouts, Ctrl-C in quartzsim).
	eng := net.Engine()
	const watchdogEvery = 100 * sim.Microsecond
	var watchdog func()
	watchdog = func() {
		if ctx.Err() != nil {
			eng.Stop()
			return
		}
		eng.After(watchdogEvery, watchdog)
	}
	eng.After(watchdogEvery, watchdog)

	net.RunUntil(runEnd)
	if err := ctx.Err(); err != nil {
		return "", err
	}
	if tracing {
		// Side-band only: flow spans go to the recorder, never the text.
		obs.FlowSpans()
	}

	fmt.Fprintf(&b, "%s | %s | %d task(s), %d streams each at %.0f pps | %g ms\n",
		arch.Name, w.Kind, w.Tasks, streams, w.PPS, spec.DurationMS)
	fmt.Fprintf(&b, "delivered %d packets, dropped %d\n", net.Delivered(), net.Dropped())
	for _, tag := range tags {
		s := h.Latency(tag)
		if s.N() == 0 {
			continue
		}
		fmt.Fprintf(&b, "task %2d: n=%-8d mean %8.2fus ±%.2f  min %.2f  max %.2f\n",
			tag/10, s.N(), s.Mean(), s.CI95(), s.Min(), s.Max())
	}
	if obs != nil && spec.Probes.Flows {
		fct := metrics.NewLatencyHistogram()
		if n := obs.Flows().FCTStats(fct); n > 0 {
			fmt.Fprintf(&b, "flows: %d tracked | FCT p50 %.1fus p99 %.1fus max %.1fus\n",
				n, fct.Quantile(0.50), fct.Quantile(0.99), fct.Max())
		}
	}
	if spec.Probes != nil && spec.Probes.HotPorts > 0 {
		fmt.Fprintf(&b, "hottest ports (by bytes):\n")
		for _, ps := range net.HottestPorts(spec.Probes.HotPorts) {
			from := arch.Graph.Node(ps.From)
			l := arch.Graph.Link(ps.Link)
			to := arch.Graph.Node(l.Other(ps.From))
			fmt.Fprintf(&b, "  %-10s -> %-10s  %8d pkts %10d B  util %5.1f%%  drops %d\n",
				from.Name, to.Name, ps.Packets, ps.Bytes,
				100*ps.Utilization(eng.Now()), ps.Drops)
		}
	}
	if sampler != nil {
		type portPeak struct {
			name string
			peak int
			mean float64
			n    int64
		}
		var peaks []portPeak
		for i := 0; i < arch.Graph.NumLinks(); i++ {
			l := arch.Graph.Link(topology.LinkID(i))
			for _, from := range []topology.NodeID{l.A, l.B} {
				ref := netsim.PortRef{Link: l.ID, From: from}
				st := sampler.DepthStats(ref)
				to := arch.Graph.Node(l.Other(from))
				peaks = append(peaks, portPeak{
					name: fmt.Sprintf("%-10s -> %-10s", arch.Graph.Node(from).Name, to.Name),
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
		show := 5
		if show > len(peaks) {
			show = len(peaks)
		}
		fmt.Fprintf(&b, "queue depth by port (sampled every %d us; deepest %d):\n", spec.Probes.QueueSampleUS, show)
		for _, pp := range peaks[:show] {
			fmt.Fprintf(&b, "  %s  peak %7d B  mean %9.1f B over %d samples\n", pp.name, pp.peak, pp.mean, pp.n)
		}
	}
	return b.String(), nil
}
