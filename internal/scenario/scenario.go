// Package scenario makes experiments data instead of code: a
// declarative JSON document format that describes a Quartz experiment
// — either a parameterization of a registry entry
// (internal/experiments) or a full packet-level simulation (topology,
// Quartz placement, routing policy, workload, fault schedule, probes) —
// plus optional sweep axes, and the machinery to parse, validate, and
// compile such a document onto the existing experiment runners.
//
// The compile path is:
//
//	bytes ──Decode──▶ *File{Doc, path→line index}
//	      ──Validate──▶ field-precise errors ("f.json:12: sim.workload.kind: ...")
//	      ──Compile──▶ *Compiled{experiments.Experiment, experiments.Params}
//
// A compiled scenario is indistinguishable from a registry experiment
// to everything downstream: cmd/quartzsim runs its Experiment.Run
// directly, and internal/service submits it through the same queue,
// worker pool, and result cache as a named experiment. A packet-level
// run has exactly one description and one runner: cmd/quartzsim's flags
// compile to a Doc too, and every sim document executes through NewSim
// and (*Sim).Run (run.go).
//
// Cache identity is preserved across representations. A scenario that
// merely parameterizes a registry entry (an "experiment" document with
// no sweep) compiles to the registry entry itself with the scenario's
// parameters, so its experiments.CacheKey equals the key of the
// equivalent direct POST /jobs submission — identical work coalesces in
// quartzd's result cache no matter which format submitted it. Custom
// simulations and sweeps are keyed by the canonical hash of the
// normalized document (see Canonical), so two byte-different files
// describing the same experiment — reordered keys, defaults spelled
// out vs omitted — still share one cache entry.
package scenario

import "strings"

// SchemaV1 is the required value of a document's "schema" field. It
// names the format version; quartzd also uses it to recognize a raw
// scenario document POSTed to /jobs.
const SchemaV1 = "quartz-scenario/v1"

// Doc is one parsed scenario document. Exactly one of Experiment or
// Sim must be set: Experiment parameterizes a registry entry, Sim
// describes a packet-level simulation. Sweep applies to either.
//
// Zero-valued optional fields take the defaults documented in
// SCENARIOS.md; Normalize applies them in place.
type Doc struct {
	// Schema must be SchemaV1.
	Schema string `json:"schema"`
	// Name identifies the scenario (lowercase letters, digits, "-",
	// "_", "."): the default Title and the label of a sweep's cells.
	Name string `json:"name"`
	// Title is an optional human heading; defaults to Name.
	Title string `json:"title,omitempty"`
	// Seed makes the scenario deterministic. Default 2014
	// (experiments.DefaultParams), so an omitted seed matches an
	// omitted seed in a direct job submission.
	Seed int64 `json:"seed,omitempty"`

	// Experiment selects and parameterizes a registry entry.
	Experiment *ExperimentSpec `json:"experiment,omitempty"`
	// Sim describes a custom packet-level simulation.
	Sim *SimSpec `json:"sim,omitempty"`
	// Sweep runs the scenario once per cell of the axis grid.
	Sweep *SweepSpec `json:"sweep,omitempty"`
}

// ExperimentSpec parameterizes one experiments registry entry — the
// document quartzsim -run NAME builds from its parameter flags.
type ExperimentSpec struct {
	// Name is a registry name (quartzsim -list). Required.
	Name string `json:"name"`
	// Trials, Tasks, and RPCs override experiments.Params fields;
	// zero means the experiment default (5000 / 8 / 2000).
	Trials int `json:"trials,omitempty"`
	Tasks  int `json:"tasks,omitempty"`
	RPCs   int `json:"rpcs,omitempty"`
}

// SimSpec is a packet-level simulation: what cmd/quartzsim runs, as
// data. Topology and Workload are required; the rest defaults.
type SimSpec struct {
	// Topology picks the network under test.
	Topology TopologySpec `json:"topology"`
	// Routing overrides the architecture's routing policy.
	Routing *RoutingSpec `json:"routing,omitempty"`
	// Workload is the traffic pattern.
	Workload WorkloadSpec `json:"workload"`
	// Faults schedules failures at virtual times mid-run.
	Faults *FaultsSpec `json:"faults,omitempty"`
	// Probes selects the observability sections of the output.
	Probes *ProbesSpec `json:"probes,omitempty"`
	// DurationMS is the measured virtual time in milliseconds.
	// Default 10.
	DurationMS float64 `json:"duration_ms,omitempty"`
}

// TopologySpec selects and sizes the simulated network. Kind and
// Quartz together name one of core.Designs (its Kind and Quartz); a
// pair that is no design is refused.
type TopologySpec struct {
	// Kind is the base topology: "tree2", "tree3", "ring" (a single
	// Quartz ring as the whole fabric), or "jellyfish". Required.
	Kind string `json:"kind"`
	// Quartz is the replacement placement on tree3/jellyfish:
	// "none" (default), "edge", "core" (tree3 only), or "both" (tree3
	// only). Only "none" is valid for "ring" (the fabric is the ring)
	// and "tree2".
	Quartz string `json:"quartz,omitempty"`
	// Pods, TorsPerPod, and HostsPerTor size the network; zero selects
	// the paper's configuration (4 / 4 / 4).
	Pods        int `json:"pods,omitempty"`
	TorsPerPod  int `json:"tors_per_pod,omitempty"`
	HostsPerTor int `json:"hosts_per_tor,omitempty"`
}

// RoutingSpec overrides the routing policy of the architecture.
type RoutingSpec struct {
	// Policy is "default" (the architecture's own router) or "vlb"
	// (Valiant load balancing layered on it, §3.4).
	Policy string `json:"policy,omitempty"`
	// VLBFraction is the fraction of traffic routed indirectly when
	// Policy is "vlb"; default 1.0.
	VLBFraction float64 `json:"vlb_fraction,omitempty"`
}

// WorkloadSpec is the traffic pattern of a Sim scenario.
type WorkloadSpec struct {
	// Kind is "scatter", "gather", "scattergather", "permutation",
	// "incast", or "replay". Required.
	Kind string `json:"kind"`
	// Tasks is the number of concurrent task instances
	// (scatter/gather/scattergather; default 4). Permutation, incast
	// and replay are single global patterns and reject Tasks > 1.
	Tasks int `json:"tasks,omitempty"`
	// Fanout is receivers (scatter), senders (gather), or both
	// (scattergather) per task, and the fan-in of incast. Default 12.
	Fanout int `json:"fanout,omitempty"`
	// PPS is the per-stream mean packet rate. Default 20000.
	PPS float64 `json:"pps,omitempty"`
	// PacketSize is the payload size in bytes. Default 400
	// (traffic.PacketSize).
	PacketSize int `json:"packet_size,omitempty"`
	// Trace is the packet list of kind "replay", inline so the document
	// stays self-contained and hashable: CSV rows
	// `at_us,src,dst,size[,flow[,tag]]` (traffic.ParseTrace), src and
	// dst indexing the topology's hosts. Rejected for other kinds.
	Trace string `json:"trace,omitempty"`
}

// FaultsSpec schedules mid-run failures (DESIGN.md §7).
type FaultsSpec struct {
	// DetectMS is the detection delay before routes reconverge, in
	// milliseconds of virtual time. Default 1.
	DetectMS float64 `json:"detect_ms,omitempty"`
	// Policy disposes of packets queued on a cut link: "drop"
	// (default) or "detour".
	Policy string `json:"policy,omitempty"`
	// Events is the schedule; at least one is required when Faults is
	// present.
	Events []FaultEventSpec `json:"events"`
}

// FaultEventSpec is one scheduled failure (and optional repair).
type FaultEventSpec struct {
	// Kind is "link", "switch", or "fiber" (fiber cuts need topology
	// kind "ring").
	Kind string `json:"kind"`
	// Link is the link ID for kind "link".
	Link int `json:"link,omitempty"`
	// Switch is the switch name or numeric node ID for kind "switch".
	Switch string `json:"switch,omitempty"`
	// Fiber and Segment address a ring fiber segment for kind "fiber".
	Fiber   int `json:"fiber,omitempty"`
	Segment int `json:"segment,omitempty"`
	// AtMS is the failure time in virtual milliseconds. Required
	// (and must be > 0).
	AtMS float64 `json:"at_ms"`
	// RepairMS, when > 0, repairs the fault at that virtual time.
	RepairMS float64 `json:"repair_ms,omitempty"`
}

// ProbesSpec selects observability sections of a Sim scenario's
// rendered output. Everything here is derived from virtual-time state,
// so enabling probes never breaks output determinism (and therefore
// never splits cache entries).
type ProbesSpec struct {
	// Flows attaches a FlowTracker and appends per-flow FCT
	// percentiles to the output.
	Flows bool `json:"flows,omitempty"`
	// QueueSampleUS samples every port's queue depth each N virtual
	// microseconds and appends the deepest-queue summary. 0 = off.
	QueueSampleUS int64 `json:"queue_sample_us,omitempty"`
	// HotPorts appends the N busiest ports by bytes. 0 = off.
	HotPorts int `json:"hot_ports,omitempty"`
	// TraceSpans records execution spans (flow lifetimes) into the
	// submission's trace recorder — quartzd's per-job flight recorder
	// (quartzsim -trace-spans FILE records them for any document). Span
	// output is side-band: it never appears in the rendered text, so
	// enabling it cannot split cache entries. A submission without a
	// recorder ignores it.
	TraceSpans bool `json:"trace_spans,omitempty"`
}

// SweepSpec fans a scenario out over a grid of parameter values.
type SweepSpec struct {
	// Axes maps an axis name to the values it takes. Registry
	// scenarios sweep "seed", "trials", "tasks", "rpcs"; sim scenarios
	// sweep "seed", "tasks", "fanout", "pps", "packet_size",
	// "duration_ms" (numbers) and "workload" (any kind but "replay"),
	// "quartz" (strings).
	// Cells enumerate the cartesian product in sorted axis-name order,
	// last axis fastest.
	Axes map[string][]interface{} `json:"axes,omitempty"`
	// Trials repeats every cell with seeds seed+0 .. seed+Trials-1.
	// Default 1.
	Trials int `json:"trials,omitempty"`
}

// Normalize applies documented defaults in place and lowercases the
// enumerated string fields, so that two documents that mean the same
// experiment become byte-identical under canonical marshalling
// (Canonical) regardless of how much they spelled out.
func (d *Doc) Normalize() {
	d.Name = lower(d.Name)
	if d.Title == "" {
		d.Title = d.Name
	}
	if d.Seed == 0 {
		d.Seed = 2014 // experiments.DefaultParams().Seed
	}
	if d.Experiment != nil {
		d.Experiment.Name = lower(d.Experiment.Name)
	}
	if d.Sim != nil {
		s := d.Sim
		s.Topology.Kind = lower(s.Topology.Kind)
		if s.Topology.Quartz == "" {
			s.Topology.Quartz = "none"
		}
		s.Topology.Quartz = lower(s.Topology.Quartz)
		if s.Routing != nil {
			if s.Routing.Policy == "" {
				s.Routing.Policy = "default"
			}
			s.Routing.Policy = lower(s.Routing.Policy)
			if s.Routing.Policy == "vlb" && s.Routing.VLBFraction == 0 {
				s.Routing.VLBFraction = 1.0
			}
			if s.Routing.Policy == "default" {
				s.Routing = nil // the zero policy: absence and presence hash alike
			}
		}
		s.Workload.Kind = lower(s.Workload.Kind)
		if s.Workload.Tasks == 0 {
			if singlePattern(s.Workload.Kind) {
				s.Workload.Tasks = 1
			} else {
				s.Workload.Tasks = 4
			}
		}
		if s.Workload.Fanout == 0 {
			s.Workload.Fanout = 12
		}
		if s.Workload.PPS == 0 {
			s.Workload.PPS = 20e3
		}
		if s.Workload.PacketSize == 0 {
			s.Workload.PacketSize = 400 // traffic.PacketSize
		}
		if s.Faults != nil {
			if s.Faults.DetectMS == 0 {
				s.Faults.DetectMS = 1
			}
			if s.Faults.Policy == "" {
				s.Faults.Policy = "drop"
			}
			s.Faults.Policy = lower(s.Faults.Policy)
			for i := range s.Faults.Events {
				s.Faults.Events[i].Kind = lower(s.Faults.Events[i].Kind)
			}
		}
		if s.DurationMS == 0 {
			s.DurationMS = 10
		}
	}
	if d.Sweep != nil {
		if d.Sweep.Trials == 0 {
			d.Sweep.Trials = 1
		}
		for name, vals := range d.Sweep.Axes {
			for i, v := range vals {
				if sv, ok := v.(string); ok {
					vals[i] = lower(sv)
				}
			}
			d.Sweep.Axes[name] = vals
		}
	}
}

// singlePattern reports whether a workload kind is one global pattern
// rather than a number of task instances: its tasks field is 1.
func singlePattern(kind string) bool {
	return kind == "permutation" || kind == "incast" || kind == "replay"
}

// lower canonicalizes an enumerated string field.
func lower(s string) string { return strings.ToLower(strings.TrimSpace(s)) }
