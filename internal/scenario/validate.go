package scenario

// Semantic validation. Runs after Normalize, collects every problem
// (not just the first) into an ErrorList whose entries carry the field
// path and, via the parse-time line index, the source line.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// Caps keep declared work within what the service should accept from
// an untrusted document: they bound topology size, run length, and
// sweep fan-out, not expressiveness.
const (
	maxTopologyDim = 128   // pods, tors_per_pod, hosts_per_tor
	maxTasks       = 64    // concurrent workload tasks
	maxDurationMS  = 10000 // 10 s of virtual time per cell
	maxSweepCells  = 512   // cells × trials
)

var (
	// Sorted, from core.Designs: its kinds, placements, and placements per kind.
	topologyKinds, quartzKinds, quartzPlacements = designPairs()

	workloadKinds = []string{"gather", "incast", "permutation", "replay", "scatter", "scattergather"}
	// generatedWorkloads are synthesized from the workload's parameters,
	// which is what makes them values of the "workload" sweep axis;
	// "replay" carries its packets inline instead.
	generatedWorkloads = []string{"gather", "incast", "permutation", "scatter", "scattergather"}
	faultKinds         = []string{"fiber", "link", "switch"}
	faultPolicies      = []string{"detour", "drop"}
)

// designPairs derives the topology lists from core.Designs.
func designPairs() (kinds, placements []string, byKind map[string][]string) {
	byKind = map[string][]string{}
	for _, d := range core.Designs {
		byKind[d.Kind] = append(byKind[d.Kind], d.Quartz)
		slices.Sort(byKind[d.Kind])
		placements = append(placements, d.Quartz)
	}
	slices.Sort(placements)
	return sortedKeys(byKind), slices.Compact(placements), byKind
}

// Validate checks f.Doc (which must already be normalized) and returns
// nil or an ErrorList describing every problem found.
func Validate(f *File) error {
	var errs ErrorList
	add := func(e *Error) { errs = append(errs, e) }
	d := &f.Doc

	switch d.Schema {
	case SchemaV1:
	case "":
		add(f.errAt("schema", "missing required field (want %q)", SchemaV1))
	default:
		add(f.errAt("schema", "unsupported schema %q (this build understands %q)", d.Schema, SchemaV1))
	}
	if d.Name == "" {
		add(f.errAt("name", "missing required field: a scenario needs a name"))
	} else if !validName(d.Name) {
		add(f.errAt("name", "invalid name %q (lowercase letters, digits, '-', '_', '.')", d.Name))
	}

	switch {
	case d.Experiment == nil && d.Sim == nil:
		add(f.errAt("", `a scenario needs either an "experiment" or a "sim" section`))
	case d.Experiment != nil && d.Sim != nil:
		add(f.errAt("sim", `"experiment" and "sim" are mutually exclusive; keep one`))
	}
	validateFields(f, d, add)
	if s := d.Sim; s != nil && s.Workload.Kind == "replay" && s.Workload.Trace != "" {
		// Parsed here, once: a sweep's cells share the document's trace.
		if _, err := traffic.ParseTrace(strings.NewReader(s.Workload.Trace)); err != nil {
			add(f.errAt("sim.workload.trace", "%v", err))
		}
	}
	if d.Sweep != nil {
		validateSweep(f, d, add)
		if len(errs) == 0 {
			validateCells(f, add)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	sort.SliceStable(errs, func(i, j int) bool { return errs[i].Line < errs[j].Line })
	return errs
}

// validateFields checks the sections a sweep axis writes into: those
// of f.Doc, or of one of its sweep's cells.
func validateFields(f *File, d *Doc, add func(*Error)) {
	if d.Experiment != nil {
		validateExperiment(f, d.Experiment, add)
	}
	if d.Sim != nil {
		validateSim(f, d.Sim, add)
	}
}

func validateExperiment(f *File, e *ExperimentSpec, add func(*Error)) {
	if e.Name == "" {
		add(f.errAt("experiment.name", "missing required field: which registry experiment to run"))
	} else if _, ok := experiments.Find(e.Name); !ok {
		msg := fmt.Sprintf("unknown experiment %q", e.Name)
		if s := suggestExperiment(e.Name); s != "" {
			msg += fmt.Sprintf(" (did you mean %q?)", s)
		} else {
			msg += " (quartzsim -list prints the registry)"
		}
		add(f.errAt("experiment.name", "%s", msg))
	}
	checkRange(f, add, "experiment.trials", e.Trials, 0, 1_000_000)
	checkRange(f, add, "experiment.tasks", e.Tasks, 0, maxTasks)
	checkRange(f, add, "experiment.rpcs", e.RPCs, 0, 1_000_000)
}

func validateSim(f *File, s *SimSpec, add func(*Error)) {
	// Topology.
	t := &s.Topology
	if t.Kind == "" {
		add(f.errAt("sim.topology.kind", "missing required field (valid: %s)", strings.Join(topologyKinds, ", ")))
	} else if !oneOf(t.Kind, topologyKinds) {
		add(f.errAt("sim.topology.kind", "unknown topology %q (valid: %s)", t.Kind, strings.Join(topologyKinds, ", ")))
	} else if !oneOf(t.Quartz, quartzKinds) {
		add(f.errAt("sim.topology.quartz", "unknown placement %q (valid: %s)", t.Quartz, strings.Join(quartzKinds, ", ")))
	} else if allowed := quartzPlacements[t.Kind]; !oneOf(t.Quartz, allowed) {
		add(f.errAt("sim.topology.quartz", "topology %q does not support quartz=%q (valid here: %s)",
			t.Kind, t.Quartz, strings.Join(allowed, ", ")))
	}
	checkRange(f, add, "sim.topology.pods", t.Pods, 0, maxTopologyDim)
	checkRange(f, add, "sim.topology.tors_per_pod", t.TorsPerPod, 0, maxTopologyDim)
	checkRange(f, add, "sim.topology.hosts_per_tor", t.HostsPerTor, 0, maxTopologyDim)
	design, sized := t.design()
	sized = sized && min(t.Pods, t.TorsPerPod, t.HostsPerTor) >= 0

	// Routing.
	if r := s.Routing; r != nil {
		if r.Policy != "vlb" { // Normalize drops "default"
			add(f.errAt("sim.routing.policy", "unknown policy %q (valid: default, vlb)", r.Policy))
		} else if r.VLBFraction <= 0 || r.VLBFraction > 1 {
			add(f.errAt("sim.routing.vlb_fraction", "fraction %g out of range (0, 1]", r.VLBFraction))
		}
	}

	// Workload.
	w := &s.Workload
	single := singlePattern(w.Kind)
	if w.Kind == "" {
		add(f.errAt("sim.workload.kind", "missing required field (valid: %s)", strings.Join(workloadKinds, ", ")))
	} else if !oneOf(w.Kind, workloadKinds) {
		add(f.errAt("sim.workload.kind", "unknown workload %q (valid: %s)", w.Kind, strings.Join(workloadKinds, ", ")))
	} else if single && w.Tasks != 1 {
		add(f.errAt("sim.workload.tasks", "%s is a single global pattern; tasks must be 1 (or omitted)", w.Kind))
	}
	if !single {
		checkRange(f, add, "sim.workload.tasks", w.Tasks, 1, maxTasks)
	}
	checkRange(f, add, "sim.workload.fanout", w.Fanout, 1, 4096)
	need := 0 // hosts the workload's pattern draws from
	switch w.Kind {
	case "scatter", "gather", "scattergather":
		need = w.Fanout + 1
	case "incast":
		need = 2 // Incast draws until src != dst
	}
	if hosts := t.archParams().Hosts(); sized && need > hosts {
		add(f.errAt("sim.workload.fanout", "%s with fanout %d needs %d hosts; the %s (topology %q) has %d",
			w.Kind, w.Fanout, need, design.Name, t.Kind, hosts))
	}
	if w.PPS <= 0 || w.PPS > 100e6 {
		add(f.errAt("sim.workload.pps", "rate %g out of range (0, 1e8] packets/s", w.PPS))
	}
	checkRange(f, add, "sim.workload.packet_size", w.PacketSize, 64, 9000)
	switch {
	case w.Kind != "replay":
		if w.Trace != "" {
			add(f.errAt("sim.workload.trace", `a trace is the packet list of kind "replay"; %q generates its own`, w.Kind))
		}
	case w.Trace == "":
		add(f.errAt("sim.workload.trace", "missing required field: replay needs CSV rows at_us,src,dst,size[,flow[,tag]]"))
	}

	// Duration: like a fault time, judged as the picoseconds it runs for.
	if s.DurationMS <= 0 || s.DurationMS > maxDurationMS {
		add(f.errAt("sim.duration_ms", "duration %g out of range (0, %d] ms", s.DurationMS, maxDurationMS))
	} else if msTime(s.DurationMS) == 0 {
		add(f.errAt("sim.duration_ms", "duration %g ms rounds to 0 ps, below the clock's resolution", s.DurationMS))
	}

	// Faults.
	if fa := s.Faults; fa != nil {
		if !oneOf(fa.Policy, faultPolicies) {
			add(f.errAt("sim.faults.policy", "unknown policy %q (valid: %s)", fa.Policy, strings.Join(faultPolicies, ", ")))
		}
		checkFaultTime(f, add, "sim.faults.detect_ms", "detection delay", fa.DetectMS)
		if len(fa.Events) == 0 {
			add(f.errAt("sim.faults.events", "a faults section needs at least one event"))
		}
		for i := range fa.Events {
			validateFaultEvent(f, s, &fa.Events[i], fmt.Sprintf("sim.faults.events[%d]", i), add)
		}
	}

	// Probes.
	if p := s.Probes; p != nil {
		if p.QueueSampleUS < 0 {
			add(f.errAt("sim.probes.queue_sample_us", "interval %d must be >= 0 µs", p.QueueSampleUS))
		}
		checkRange(f, add, "sim.probes.hot_ports", p.HotPorts, 0, 1024)
	}
}

func validateFaultEvent(f *File, s *SimSpec, ev *FaultEventSpec, path string, add func(*Error)) {
	switch ev.Kind {
	case "link":
		if ev.Link < 0 {
			add(f.errAt(path+".link", "link ID %d must be >= 0", ev.Link))
		}
	case "switch":
		if ev.Switch == "" {
			add(f.errAt(path+".switch", "missing switch name or node ID"))
		}
	case "fiber":
		if s.Topology.Kind != "ring" {
			add(f.errAt(path+".kind", `fiber cuts resolve against the ring's wavelength plan; they need topology kind "ring"`))
		}
		if ev.Fiber < 0 || ev.Segment < 0 {
			add(f.errAt(path, "fiber %d / segment %d must be >= 0", ev.Fiber, ev.Segment))
		}
	case "":
		add(f.errAt(path+".kind", "missing required field (valid: %s)", strings.Join(faultKinds, ", ")))
	default:
		add(f.errAt(path+".kind", "unknown fault kind %q (valid: %s)", ev.Kind, strings.Join(faultKinds, ", ")))
	}
	at := checkFaultTime(f, add, path+".at_ms", "fault time", ev.AtMS)
	if at > 0 && at >= msTime(s.DurationMS) {
		add(f.errAt(path+".at_ms", "fault at %g ms fires after the %g ms run ends", ev.AtMS, s.DurationMS))
	}
	if ev.RepairMS != 0 {
		if repair := checkFaultTime(f, add, path+".repair_ms", "repair time", ev.RepairMS); repair > 0 && at > 0 && repair <= at {
			add(f.errAt(path+".repair_ms", "repair at %g ms must come after the fault at %g ms", ev.RepairMS, ev.AtMS))
		}
	}
}

// maxFaultMS is the latest fault time the engine's clock can hold.
const maxFaultMS = float64(sim.MaxTime / sim.Millisecond)

// checkFaultTime validates a fault time as the picoseconds the runner
// will use (msTime), not as milliseconds: FaultInjector.Apply reads a
// zero detection delay as "keep the default" and a zero repair time as
// "permanent", so a positive field that rounds to 0 ps would silently
// mean something else. It returns the rounded time, or 0 after
// reporting a problem.
func checkFaultTime(f *File, add func(*Error), path, what string, ms float64) sim.Time {
	switch {
	case ms <= 0:
		add(f.errAt(path, "%s %g must be > 0 ms", what, ms))
	case ms > maxFaultMS:
		add(f.errAt(path, "%s %g ms is past the end of virtual time (%g ms)", what, ms, maxFaultMS))
	case msTime(ms) == 0:
		add(f.errAt(path, "%s %g ms rounds to 0 ps, below the clock's resolution", what, ms))
	default:
		return msTime(ms)
	}
	return 0
}

func validateSweep(f *File, d *Doc, add func(*Error)) {
	sw := d.Sweep
	checkRange(f, add, "sweep.trials", sw.Trials, 1, maxSweepCells)
	axes := axesOf(d)
	cells := sw.Trials
	for _, name := range sortedKeys(sw.Axes) {
		path := "sweep.axes." + name
		if _, ok := axes[name]; !ok {
			add(f.errAt(path, "unknown sweep axis %q (valid for this scenario type: %s)", name, strings.Join(sortedKeys(axes), ", ")))
		} else if n := len(sw.Axes[name]); n == 0 {
			add(f.errAt(path, "axis needs at least one value"))
		} else if cells <= maxSweepCells { // past the cap the product only grows, and may overflow
			cells *= n
		}
	}
	if cells > maxSweepCells {
		add(f.errAt("sweep", "sweep expands to at least %d runs (cells × trials); the cap is %d", cells, maxSweepCells))
	}
}

// maxSweepSeed bounds a seed axis value, leaving its trials room.
const maxSweepSeed = 1 << 62

// sweepValue holds the rules a swept value answers to beyond its
// field's own: 0 is how a document omits a number, so it is no value;
// a seed is in [1, 2^62]; and the workload axis takes the generated
// kinds, as "replay" varies nothing but its trace.
func sweepValue(ov axisValue) string {
	x, num := ov.val.(float64)
	switch {
	case num && x == 0:
		return "0 is not a sweep value: in a document it means the default"
	case ov.name == "seed" && (x < 1 || x > maxSweepSeed):
		return fmt.Sprintf("value %.0f out of range [1, %d]", x, maxSweepSeed)
	case ov.name == "workload" && !oneOf(ov.val.(string), generatedWorkloads):
		return fmt.Sprintf("unknown value %q (valid: %s)", ov.val, strings.Join(generatedWorkloads, ", "))
	}
	return ""
}

// validateCells checks each cell of f.Doc's sweep as the document it
// runs (sweepCell.doc). A problem is reported once, at the first cell
// that has it, located at the value that wrote the field it names, else
// at the cell's first value.
func validateCells(f *File, add func(*Error)) {
	seen := map[string]bool{}
	once := func(key, path, msg string) {
		if !seen[key] {
			seen[key] = true
			add(f.errAt(path, "%s", msg))
		}
	}
	for _, c := range cellsOf(&f.Doc) {
		if c.trial > 0 || len(c.overrides) == 0 {
			continue // trial 0 with the same values, or f.Doc itself
		}
		d, bad := c.doc(&f.Doc)
		for _, e := range bad {
			once(e.Path+"\x00"+e.Msg, e.Path, e.Msg)
		}
		if len(bad) > 0 {
			continue
		}
		validateFields(f, &d, func(e *Error) {
			at := c.overrides[0]
			for _, ov := range c.overrides {
				if axesOf(&d)[ov.name] == e.Path {
					at = ov
				}
			}
			once(e.Path+"\x00"+e.Msg, at.path(), fmt.Sprintf("cell %s: %s: %s", c.label(1), e.Path, e.Msg))
		})
	}
}

// checkRange flags v outside [0-or-min, max]; zero is always allowed
// because it means "default".
func checkRange(f *File, add func(*Error), path string, v, min, max int) {
	if v == 0 {
		return
	}
	if v < min || v > max {
		add(f.errAt(path, "value %d out of range [%d, %d]", v, min, max))
	}
}

func oneOf(s string, set []string) bool {
	for _, x := range set {
		if s == x {
			return true
		}
	}
	return false
}

// validName restricts scenario names to registry-safe identifiers.
func validName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9', c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return len(s) > 0 && len(s) <= 64
}

// suggestExperiment proposes a registry name within edit distance 2.
func suggestExperiment(name string) string {
	best, bestDist := "", 3
	for _, e := range experiments.All() {
		if d := editDistance(name, e.Name); d < bestDist {
			best, bestDist = e.Name, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance, small-string sized.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
