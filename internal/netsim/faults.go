package netsim

import (
	"fmt"
	"sort"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// This file is the runtime fault-injection subsystem (§3.5 dynamics):
// link, switch, and fiber-segment failures injected at virtual times
// mid-run, a detection-delay model, and route reconvergence through
// routing.Rerouter. FaultInjector.Apply is the only way a link changes
// state, and reconvergence the only way routes change (DESIGN.md §3).

// FaultKind selects what a FaultEvent takes down.
type FaultKind uint8

const (
	// FaultLink fails a single wavelength link.
	FaultLink FaultKind = iota
	// FaultSwitch fails every link incident to a switch.
	FaultSwitch
	// FaultFiber fails the set of wavelength links severed by cutting
	// one fiber segment of a Quartz ring (§3.5) — resolved through
	// FaultInjector.SetFiberResolver.
	FaultFiber
)

func (k FaultKind) String() string {
	switch k {
	case FaultLink:
		return "link"
	case FaultSwitch:
		return "switch"
	case FaultFiber:
		return "fiber"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// ReroutePolicy decides the fate of packets already queued on a port
// when its link is cut.
type ReroutePolicy uint8

const (
	// DropInFlight drops queued packets immediately (reason
	// "link N cut") — the physical truth for a severed fiber.
	DropInFlight ReroutePolicy = iota
	// DetourInFlight holds queued packets and re-forwards them from
	// their current switch once routes have reconverged — modelling
	// switches with failover buffering.
	DetourInFlight
)

// FaultEvent is one scheduled failure, optionally with a repair.
type FaultEvent struct {
	Kind FaultKind
	// Link is the target for FaultLink.
	Link topology.LinkID
	// Switch is the target for FaultSwitch.
	Switch topology.NodeID
	// Fiber and Segment locate the cut for FaultFiber.
	Fiber, Segment int
	// At is the injection time. RepairAt, when > At, schedules the
	// repair; zero means the fault is permanent.
	At, RepairAt sim.Time
}

func (ev FaultEvent) String() string {
	var target string
	switch ev.Kind {
	case FaultLink:
		target = fmt.Sprintf("link %d", ev.Link)
	case FaultSwitch:
		target = fmt.Sprintf("switch %d", ev.Switch)
	case FaultFiber:
		target = fmt.Sprintf("fiber %d.%d", ev.Fiber, ev.Segment)
	}
	// Space-separated so the string stays CSV-safe in trace reasons.
	if ev.RepairAt > ev.At {
		return fmt.Sprintf("%s@%v repair@%v", target, ev.At, ev.RepairAt)
	}
	return fmt.Sprintf("%s@%v", target, ev.At)
}

// FaultSchedule is a set of fault events plus the control-plane model
// they run under. Apply it with Network.Faults().Apply.
type FaultSchedule struct {
	Events []FaultEvent
	// DetectionDelay is the time between a fault (or repair) taking
	// effect on the data plane and routes reconverging around it —
	// the blackhole window. Zero keeps the delay the last applied
	// schedule set (DefaultDetectionDelay if none did).
	DetectionDelay sim.Time
	// Policy picks what happens to packets queued on a cut link.
	Policy ReroutePolicy
}

// FaultChange reports one data-plane or control-plane transition to
// fault observers: the injection (Reconverged=false), the repair
// (Repair=true), and the reconvergence that follows each
// (Reconverged=true).
type FaultChange struct {
	At    sim.Time
	Event FaultEvent
	// Links are the wavelength links the event maps to.
	Links []topology.LinkID
	// Repair marks the restore transition of the event.
	Repair bool
	// Reconverged marks the control-plane catching up: routes now avoid
	// (or re-include) the links.
	Reconverged bool
	// DeadLinks is the number of links down after this change.
	DeadLinks int
}

// FaultObserver is an optional extension of Probe: probes that also
// implement it see fault injections, repairs, and reconvergence.
type FaultObserver interface {
	FaultChanged(FaultChange)
}

// DefaultDetectionDelay is the injector's reconvergence lag when the
// schedule does not set one: the order of fast link-layer failure
// detection plus local route recomputation.
const DefaultDetectionDelay = 1 * sim.Millisecond

// FaultInjector is the unified failure surface of a Network: it owns
// every link's up/down state (reference-counted, so overlapping faults
// compose), applies FaultSchedules, and drives reconvergence. Obtain it
// with Network.Faults(). All methods must run on the simulation
// goroutine (inside events or between runs).
type FaultInjector struct {
	n *Network
	// failCount refcounts failures per link: a link is down while its
	// count is positive, so a switch failure overlapping a fiber cut
	// only repairs when both are repaired.
	failCount map[topology.LinkID]int
	detection sim.Time
	policy    ReroutePolicy
	fiber     func(fiber, segment int) ([]topology.LinkID, error)
	// held are the records of in-flight packets pulled off cut ports,
	// awaiting reconvergence under DetourInFlight; each still names the
	// node it was queued at.
	held []*netEvent
	// OnChange, when set, observes every FaultChange alongside any
	// probe implementing FaultObserver.
	OnChange func(FaultChange)
}

// Faults returns the network's fault injector, creating it on first
// use.
func (n *Network) Faults() *FaultInjector {
	if n.faults == nil {
		n.faults = &FaultInjector{
			n:         n,
			failCount: make(map[topology.LinkID]int),
			detection: DefaultDetectionDelay,
		}
	}
	return n.faults
}

// SetFiberResolver installs the resolver that maps a FaultFiber event
// to the wavelength links it severs — required iff a schedule contains
// FaultFiber events. core.Ring.AttachFaults installs the ring's
// FiberLinks, the one implementation.
func (fi *FaultInjector) SetFiberResolver(f func(fiber, segment int) ([]topology.LinkID, error)) {
	fi.fiber = f
}

// Dead returns the set of currently-down links. The map is a copy;
// it is what reconvergence passes to routing.Rerouter.Reroute.
func (fi *FaultInjector) Dead() map[topology.LinkID]bool {
	out := make(map[topology.LinkID]bool, len(fi.failCount))
	for l, c := range fi.failCount {
		if c > 0 {
			out[l] = true
		}
	}
	return out
}

// DeadCount returns how many links are currently down.
func (fi *FaultInjector) DeadCount() int {
	c := 0
	for _, v := range fi.failCount {
		if v > 0 {
			c++
		}
	}
	return c
}

// resolve maps a FaultEvent to the links it affects, validating the
// target. Links are returned sorted for deterministic application
// order.
func (fi *FaultInjector) resolve(ev FaultEvent) ([]topology.LinkID, error) {
	g := fi.n.g
	switch ev.Kind {
	case FaultLink:
		if int(ev.Link) < 0 || int(ev.Link) >= g.NumLinks() {
			return nil, fmt.Errorf("netsim: unknown link %d", ev.Link)
		}
		return []topology.LinkID{ev.Link}, nil
	case FaultSwitch:
		if int(ev.Switch) < 0 || int(ev.Switch) >= g.NumNodes() {
			return nil, fmt.Errorf("netsim: unknown node %d", ev.Switch)
		}
		if g.Node(ev.Switch).Kind != topology.Switch {
			return nil, fmt.Errorf("netsim: node %d is not a switch", ev.Switch)
		}
		var links []topology.LinkID
		for _, p := range g.Ports(ev.Switch) {
			links = append(links, p.Link)
		}
		sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
		return links, nil
	case FaultFiber:
		if fi.fiber == nil {
			return nil, fmt.Errorf("netsim: fiber fault needs a fiber resolver (no Quartz ring attached?)")
		}
		links, err := fi.fiber(ev.Fiber, ev.Segment)
		if err != nil {
			return nil, err
		}
		links = append([]topology.LinkID(nil), links...)
		sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
		return links, nil
	}
	return nil, fmt.Errorf("netsim: unknown fault kind %d", ev.Kind)
}

// Apply validates the whole schedule, then installs its events on the
// network's engine. It must be called before (or at) the earliest
// event time. Invalid schedules are rejected atomically — no event is
// installed.
func (fi *FaultInjector) Apply(s FaultSchedule) error {
	if s.DetectionDelay > 0 {
		fi.detection = s.DetectionDelay
	}
	fi.policy = s.Policy
	now := fi.n.eng.Now()
	resolved := make([][]topology.LinkID, len(s.Events))
	for i, ev := range s.Events {
		links, err := fi.resolve(ev)
		if err != nil {
			return fmt.Errorf("event %d (%s): %w", i, ev, err)
		}
		if ev.At < now {
			return fmt.Errorf("event %d (%s): injection time %v is in the past (now %v)", i, ev, ev.At, now)
		}
		if ev.RepairAt != 0 && ev.RepairAt <= ev.At {
			return fmt.Errorf("event %d (%s): repair time %v not after injection %v", i, ev, ev.RepairAt, ev.At)
		}
		resolved[i] = links
	}
	for i, ev := range s.Events {
		ev, links := ev, resolved[i]
		fi.n.eng.Schedule(ev.At, func() { fi.inject(ev, links, false) })
		if ev.RepairAt > ev.At {
			fi.n.eng.Schedule(ev.RepairAt, func() { fi.inject(ev, links, true) })
		}
	}
	return nil
}

// inject applies one transition (failure or repair) to the data plane,
// notifies observers, and schedules reconvergence after the detection
// delay.
func (fi *FaultInjector) inject(ev FaultEvent, links []topology.LinkID, repair bool) {
	for _, l := range links {
		if repair {
			fi.repairLink(l)
		} else {
			fi.failLink(l)
		}
	}
	now := fi.n.eng.Now()
	fi.emit(FaultChange{
		At: now, Event: ev, Links: links, Repair: repair, DeadLinks: fi.DeadCount(),
	})
	fi.n.eng.After(fi.detection, func() {
		fi.reconverge()
		fi.emit(FaultChange{
			At: fi.n.eng.Now(), Event: ev, Links: links, Repair: repair,
			Reconverged: true, DeadLinks: fi.DeadCount(),
		})
	})
}

// failLink takes one link down (refcounted). On the 0->1 transition the
// queues of both directions are flushed per the policy; the frame a
// transmitter already committed to is considered on the wire and
// completes.
func (fi *FaultInjector) failLink(id topology.LinkID) {
	fi.failCount[id]++
	if fi.failCount[id] > 1 {
		return // already down
	}
	for d := 0; d < 2; d++ {
		di := 2*int(id) + d
		dl := &fi.n.dirs[di]
		dl.down = true
		for q := dl.nextQueue(); q != nil; q = dl.nextQueue() {
			ev := q.pop()
			dl.queuedBytes -= ev.p.Size
			if fi.policy == DetourInFlight {
				fi.held = append(fi.held, ev)
			} else {
				dl.drops++
				fi.n.drop(ev, DropCodeLinkCut, id, nil)
			}
		}
	}
}

// repairLink brings one link back up once every overlapping fault on it
// has been repaired.
func (fi *FaultInjector) repairLink(id topology.LinkID) {
	if fi.failCount[id] == 0 {
		return // repairing a healthy link is a no-op
	}
	fi.failCount[id]--
	if fi.failCount[id] > 0 {
		return // another fault still holds it down
	}
	delete(fi.failCount, id)
	fi.n.dirs[2*int(id)].down = false
	fi.n.dirs[2*int(id)+1].down = false
}

// reconverge recomputes routes around the current dead set and releases
// any packets held for detour.
func (fi *FaultInjector) reconverge() {
	dead := fi.Dead()
	if r, ok := fi.n.router.(routing.Rerouter); ok {
		r.Reroute(dead)
	}
	if len(fi.held) == 0 {
		return
	}
	held := fi.held
	fi.held = nil
	now := fi.n.eng.Now()
	for _, ev := range held {
		fi.n.forward(ev, now)
	}
}

func (fi *FaultInjector) emit(c FaultChange) {
	if fi.OnChange != nil {
		fi.OnChange(c)
	}
	if fo, ok := fi.n.probe.(FaultObserver); ok {
		fo.FaultChanged(c)
	}
}
