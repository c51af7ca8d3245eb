// Package quartz is a Go implementation of Quartz (Liu, Gao, Wong,
// Keshav — SIGCOMM 2014): a datacenter network design element that
// implements a logical full mesh of low-latency switches as a physical
// WDM ring.
//
// The package re-exports the library's public surface; the
// implementation lives under internal/:
//
//   - Ring planning: NewRing validates port budgets, assigns wavelength
//     channels (§3.1), splits them over physical fiber rings (§3.5), and
//     places amplifiers (§3.3).
//   - Design-element placements (§4): ThreeTierTree, QuartzInCore,
//     QuartzInEdge, QuartzInEdgeAndCore, Jellyfish, QuartzInJellyfish —
//     simulation-ready Architectures.
//   - Channel assignment: GreedyChannels (the paper's heuristic),
//     OptimalChannels (the proven minimum the paper's ILP computes),
//     ExactChannels (branch-and-bound for small rings).
//   - Experiments: the Figure*/Table* functions regenerate every result
//     of the paper's evaluation; see also cmd/quartzbench.
//
// Example:
//
//	ring, err := quartz.NewRing(quartz.RingConfig{Switches: 33, HostsPerSwitch: 32})
//	if err != nil { ... }
//	fmt.Println(ring) // 1056 ports, 136 channels on 2 fiber rings, ...
package quartz

import (
	"math/rand"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/fault"
	"github.com/quartz-dcn/quartz/internal/metrics"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/optics"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/tcp"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/wdm"
)

// Core Quartz types.
type (
	// Ring is a planned Quartz ring: logical mesh, channel plan, and
	// optical budget.
	Ring = core.Ring
	// RingConfig parameterizes NewRing.
	RingConfig = core.RingConfig
	// Architecture is a simulation-ready network design.
	Architecture = core.Architecture
	// ArchParams sizes the §7 architectures.
	ArchParams = core.ArchParams
)

// Topology, simulation and routing types.
type (
	// Graph is a static network topology.
	Graph = topology.Graph
	// DualToRConfig parameterizes NewDualToRMesh.
	DualToRConfig = topology.DualToRConfig
	// NodeID identifies a node in a Graph.
	NodeID = topology.NodeID
	// Time is simulation time in picoseconds.
	Time = sim.Time
	// Rate is a data rate in bits per second.
	Rate = sim.Rate
	// Network is the packet-level simulator.
	Network = netsim.Network
	// NetworkConfig assembles a Network for NewNetwork.
	NetworkConfig = netsim.Config
	// SwitchModel describes switch forwarding behaviour.
	SwitchModel = netsim.SwitchModel
	// Router selects forwarding ports.
	Router = routing.Router
	// FlowID identifies a flow for routing and Network.Unicast.
	FlowID = routing.FlowID
	// ChannelPlan is a wavelength assignment for a ring.
	ChannelPlan = wdm.Plan
)

// Observability: probes, tracing, and run telemetry for the packet
// simulator. Attach a Probe via NetworkConfig.Probe or
// Network.SetProbe; see internal/netsim for the concrete probes.
type (
	// Probe observes the packet lifecycle (enqueue, transmit, deliver,
	// drop) inside a Network.
	Probe = netsim.Probe
	// PortRef identifies one directed link (link + transmitting node).
	PortRef = netsim.PortRef
	// QueueEvent is one packet passing through an output queue.
	QueueEvent = netsim.QueueEvent
	// Delivery reports a packet reaching its destination host.
	Delivery = netsim.Delivery
	// Drop reports a lost packet.
	Drop = netsim.Drop
	// TraceRecorder is a bounded per-packet lifecycle trace (a Probe).
	TraceRecorder = netsim.TraceRecorder
	// TraceEvent is one recorded step of a packet's life.
	TraceEvent = netsim.TraceEvent
	// QueueSampler periodically samples queue depth and utilization.
	QueueSampler = netsim.QueueSampler
	// QueueSample is one periodic observation of a directed link.
	QueueSample = netsim.QueueSample
	// RunTelemetry summarizes a run: events, peak queue depth, wall rate,
	// packet counters.
	RunTelemetry = netsim.RunTelemetry
)

// Runtime metrics: a registry of labelled instruments fed by the
// FlowTracker probe, QueueSampler.Bind, and sim.AttachHeartbeat, with
// Prometheus/NDJSON/HTTP export (DESIGN.md §6).
type (
	// Engine is the discrete-event engine driving a Network
	// (Network.Engine returns it).
	Engine = sim.Engine
	// MetricsRegistry holds named, labelled counters, gauges, and
	// latency histograms with snapshot/diff semantics.
	MetricsRegistry = metrics.Registry
	// LatencyHistogram estimates p50–p999 in O(buckets) memory.
	LatencyHistogram = metrics.LatencyHistogram
	// FlowTracker is a Probe aggregating per-flow FCT, bytes,
	// retransmits, and classified drop attribution.
	FlowTracker = netsim.FlowTracker
	// FlowStats is one flow's aggregated record.
	FlowStats = netsim.FlowStats
	// Heartbeat publishes engine health into a registry periodically.
	Heartbeat = sim.Heartbeat
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewLatencyHistogram returns an empty log-bucketed histogram.
func NewLatencyHistogram() *LatencyHistogram { return metrics.NewLatencyHistogram() }

// NewFlowTracker returns a per-flow telemetry probe; Bind it to a
// registry for live aggregate counters.
func NewFlowTracker() *FlowTracker { return netsim.NewFlowTracker() }

// AttachHeartbeat registers engine-health instruments in r and
// publishes them every interval of virtual time until the given time.
func AttachHeartbeat(e *Engine, r *MetricsRegistry, interval, until Time) *Heartbeat {
	return sim.AttachHeartbeat(e, r, interval, until)
}

// Fault injection: runtime link/switch/fiber failures with detection
// delay and route reconvergence (§3.5 dynamics). Obtain a Network's
// injector with Network.Faults(); core.Ring.AttachFaults wires a
// planned ring's fiber-cut geometry into it.
type (
	// FaultInjector is the unified failure surface of a Network.
	FaultInjector = netsim.FaultInjector
	// FaultSchedule is a set of timed fault events plus the
	// control-plane model (detection delay, in-flight policy).
	FaultSchedule = netsim.FaultSchedule
	// FaultEvent is one scheduled failure with an optional repair.
	FaultEvent = netsim.FaultEvent
	// FaultKind selects link, switch, or fiber-segment faults.
	FaultKind = netsim.FaultKind
	// FaultChange reports a fault transition to observers.
	FaultChange = netsim.FaultChange
	// FaultObserver extends Probe with fault-transition callbacks.
	FaultObserver = netsim.FaultObserver
	// ReroutePolicy picks the fate of packets queued on a cut link.
	ReroutePolicy = netsim.ReroutePolicy
	// Rerouter is a Router that can recompute around failed links.
	Rerouter = routing.Rerouter
)

// Fault kinds and in-flight policies.
const (
	FaultLink      = netsim.FaultLink
	FaultSwitch    = netsim.FaultSwitch
	FaultFiber     = netsim.FaultFiber
	DropInFlight   = netsim.DropInFlight
	DetourInFlight = netsim.DetourInFlight
)

// DefaultDetectionDelay is the reconvergence lag a FaultSchedule gets
// when it does not set one.
const DefaultDetectionDelay = netsim.DefaultDetectionDelay

// NewNetwork builds a packet-level network simulator from cfg.
func NewNetwork(cfg NetworkConfig) (*Network, error) { return netsim.New(cfg) }

// NewTraceRecorder returns a Probe recording at most max lifecycle
// events (enqueue/transmit/deliver/drop with timestamps and, with
// NetworkConfig.RecordPaths, delivered hop lists).
func NewTraceRecorder(max int) *TraceRecorder { return netsim.NewTraceRecorder(max) }

// NewQueueSampler returns a periodic queue-depth/link-utilization
// sampler for n; call Start(until) before running the engine, and
// attach it as a Probe for exact per-port peak depths.
func NewQueueSampler(n *Network, interval Time) *QueueSampler {
	return netsim.NewQueueSampler(n, interval)
}

// Probes combines several probes into one; events fan out in order.
func Probes(ps ...Probe) Probe { return netsim.Probes(ps...) }

// Time and rate units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Mbps        = sim.Mbps
	Gbps        = sim.Gbps
)

// Switch models of Table 16.
var (
	// Arista7150 is the 380 ns cut-through switch ("ULL").
	Arista7150 = netsim.Arista7150
	// CiscoNexus7000 is the 6 µs store-and-forward core switch ("CCS").
	CiscoNexus7000 = netsim.CiscoNexus7000
)

// NewRing plans a Quartz ring (§3): channel assignment, fiber split,
// and amplifier placement.
func NewRing(cfg RingConfig) (*Ring, error) { return core.NewRing(cfg) }

// MaxPortsSingleRing returns the largest switch a single ring can mimic
// with the given switch port count (1056 at 64 ports; §3.2).
func MaxPortsSingleRing(switchPorts int) (ports, ringSize int) {
	return core.MaxPortsSingleRing(switchPorts)
}

// GreedyChannels runs the paper's greedy channel-assignment heuristic
// (§3.1.1) for a ring of m switches.
func GreedyChannels(m int, rng *rand.Rand) *ChannelPlan { return wdm.Greedy(m, rng) }

// OptimalChannels returns the proven minimum number of wavelengths for
// all-pairs communication on a ring of m switches — the value the
// paper's ILP computes.
func OptimalChannels(m int) int { return wdm.OptimalChannels(m) }

// ExactChannels solves the assignment exactly by branch-and-bound
// (small rings only).
func ExactChannels(m int) (*ChannelPlan, error) { return wdm.ExactBranchBound(m) }

// MaxRingSize returns the largest ring a fiber with the given channel
// budget supports (35 for the standard 160-channel fiber).
func MaxRingSize(channelBudget int) int { return wdm.MaxRingSize(channelBudget) }

// PlanAmplifiers computes the §3.3 amplifier plan for a ring.
func PlanAmplifiers(ringSize int) (optics.RingBudget, error) {
	return optics.PlanRing(ringSize, optics.DefaultParts)
}

// SimulateFiberCuts measures bandwidth loss and partition probability
// under random fiber cuts (§3.5, Figure 6).
func SimulateFiberCuts(plan *ChannelPlan, cuts, trials int, rng *rand.Rand) (fault.Result, error) {
	return fault.Simulate(plan, cuts, trials, rng)
}

// The §4/§7 design-element placements.
var (
	// ThreeTierTree builds the paper's baseline architecture.
	ThreeTierTree = core.ThreeTierTree
	// QuartzInCore replaces the core switches with a Quartz ring.
	QuartzInCore = core.QuartzInCore
	// QuartzInEdge replaces ToR and aggregation tiers with Quartz rings.
	QuartzInEdge = core.QuartzInEdge
	// QuartzInEdgeAndCore replaces both.
	QuartzInEdgeAndCore = core.QuartzInEdgeAndCore
	// Jellyfish builds the random-topology baseline.
	Jellyfish = core.Jellyfish
	// QuartzInJellyfish builds a random graph of Quartz rings (§4.3).
	QuartzInJellyfish = core.QuartzInJellyfish
	// TwoTierTreeArch builds the small-DC baseline of Table 8.
	TwoTierTreeArch = core.TwoTierTreeArch
	// QuartzRingArch builds a single Quartz ring as a whole small DCN.
	QuartzRingArch = core.QuartzRingArch
)

// Experiments: regenerate the paper's evaluation. See
// internal/experiments for row types and renderers, and cmd/quartzbench
// for a CLI.
var (
	// Figure5 sweeps channel counts vs ring size.
	Figure5 = experiments.Figure5
	// Figure6 runs the fault-tolerance Monte Carlo.
	Figure6 = experiments.Figure6
	// Table8 runs the cost/latency configurator.
	Table8 = experiments.Table8
	// Table9 compares the five ~1k-port topologies.
	Table9 = experiments.Table9
	// Figure10 measures normalized throughput on three patterns.
	Figure10 = experiments.Figure10
	// Figure14 reruns the prototype cross-traffic experiment.
	Figure14 = experiments.Figure14Sweep
	// Figure17 sweeps global scatter/gather/scatter-gather tasks.
	Figure17 = experiments.Figure17
	// Figure18 sweeps localized tasks under global cross-traffic.
	Figure18 = experiments.Figure18
	// Figure20 runs the pathological switch-pair stress pattern.
	Figure20 = experiments.Figure20
	// FigureF6Dynamic runs a mid-run fiber cut with reconvergence and
	// measures throughput before, during, and after (§3.5 dynamics).
	FigureF6Dynamic = experiments.FigureF6Dynamic
)

// Experiment registry: every reproduced table and figure, with a name,
// paper section, and runner. cmd/quartzbench iterates this.
type (
	// Experiment is one registry entry.
	Experiment = experiments.Experiment
	// ExperimentParams carries the shared experiment knobs.
	ExperimentParams = experiments.Params
	// ExperimentOutput is an experiment's rendered text and CSV rows.
	ExperimentOutput = experiments.Output
)

var (
	// Experiments returns the full registry in presentation order.
	Experiments = experiments.All
	// FindExperiment looks an entry up by its CLI name.
	FindExperiment = experiments.Find
)

// Extended API surface: scaling variants, expansion, transports, and
// failure modelling.

// NewDualToRMesh builds the §3.2 dual-homed scaling variant: two ToR
// switches per rack, one direct link per rack pair, two-switch paths —
// 2080 ports from 64-port switches.
var NewDualToRMesh = topology.NewDualToRMesh

// ExpandPlan grows a single-fiber channel plan in place with minimal
// disruption (§8's incremental deployment): kept channels stay on their
// wavelength; only splice-crossing arcs retune.
var ExpandPlan = wdm.ExpandPlan

// GreedyWeightedChannels assigns per-pair channel multiplicities —
// dedicate several wavelengths to hot rack pairs.
var GreedyWeightedChannels = wdm.GreedyWeighted

// Routing strategies beyond ECMP/VLB.
var (
	// NewECMP routes over all equal-cost shortest paths with per-flow
	// pinning (§3.4; on a full mesh it always picks the direct hop).
	NewECMP = routing.NewECMP
	// NewSPAIN builds the prototype's multi-VLAN multipath (§6).
	NewSPAIN = routing.NewSPAIN
	// NewKSP routes over k shortest loop-free paths (Jellyfish).
	NewKSP = routing.NewKSP
	// NewECMPPerPacket sprays packets over the equal-cost set.
	NewECMPPerPacket = routing.NewECMPPerPacket
)

// Transport types for congestion-controlled traffic (internal/tcp).
type (
	// TCPConn is a simulated Reno/DCTCP connection.
	TCPConn = tcp.Conn
	// TCPConfig parameterizes NewTCP.
	TCPConfig = tcp.Config
	// TCPMode selects Reno or DCTCP.
	TCPMode = tcp.Mode
)

// TCP congestion-control modes.
const (
	Reno  = tcp.Reno
	DCTCP = tcp.DCTCP
)

// NewTCP creates a simulated TCP connection on a Network.
func NewTCP(cfg TCPConfig) (*TCPConn, error) { return tcp.New(cfg) }
