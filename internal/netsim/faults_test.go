package netsim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// ring4 builds a 4-switch full mesh (one Quartz ring's logical
// topology) with one host per switch.
func ring4(t testing.TB) *topology.Graph {
	t.Helper()
	g, err := topology.NewFullMesh(topology.MeshConfig{Switches: 4, HostsPerSwitch: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// noReconverge is a detection delay no run in these tests reaches: a
// link a schedule cuts under it stays in the routes, so traffic routed
// onto it is dropped as "link down".
const noReconverge = 3600 * sim.Second

// cutLink schedules link l's failure at time 0, and its repair at
// repairAt unless that is zero, under noReconverge.
func cutLink(t testing.TB, net *Network, l topology.LinkID, repairAt sim.Time) {
	t.Helper()
	if err := net.Faults().Apply(FaultSchedule{
		Events:         []FaultEvent{{Kind: FaultLink, Link: l, RepairAt: repairAt}},
		DetectionDelay: noReconverge,
	}); err != nil {
		t.Fatal(err)
	}
}

// faultRun is the comparable outcome of one reconvergence run.
type faultRun struct {
	delivered, dropped uint64
	// perWindow counts deliveries in 500us windows.
	perWindow []int
	changes   []string
	dupes     int
}

// runReconvergence drives steady h0->h1 traffic across a scheduled
// cut+repair of the direct switch link and summarizes the outcome.
func runReconvergence(t *testing.T, policy ReroutePolicy) faultRun {
	t.Helper()
	g := ring4(t)
	h0, h1 := g.Hosts()[0], g.Hosts()[1]
	s0 := g.ToRof(h0)
	s1 := g.ToRof(h1)
	direct, ok := g.FindLink(s0, s1)
	if !ok {
		t.Fatal("no direct link in mesh")
	}

	const (
		window   = 500 * sim.Microsecond
		duration = 10 * sim.Millisecond
		cutAt    = 2 * sim.Millisecond
		repairAt = 6 * sim.Millisecond
		detect   = 500 * sim.Microsecond
	)
	out := faultRun{perWindow: make([]int, int(duration/window)+1)}
	seen := map[uint64]bool{}
	net, err := New(Config{
		Graph:  g,
		Router: routing.NewECMP(g),
		SwitchModel: func(topology.Node) SwitchModel {
			return Arista7150
		},
		OnDeliver: func(d Delivery) {
			if seen[d.Packet.ID] {
				out.dupes++
			}
			seen[d.Packet.ID] = true
			i := int(d.At / window)
			if i < len(out.perWindow) {
				out.perWindow[i]++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fi := net.Faults()
	fi.OnChange = func(c FaultChange) {
		out.changes = append(out.changes, fmt.Sprintf("%s repair=%v reconv=%v dead=%d",
			c.Event, c.Repair, c.Reconverged, c.DeadLinks))
	}
	if err := fi.Apply(FaultSchedule{
		Events: []FaultEvent{{
			Kind: FaultLink, Link: direct.ID, At: cutAt, RepairAt: repairAt,
		}},
		DetectionDelay: detect,
		Policy:         policy,
	}); err != nil {
		t.Fatal(err)
	}

	eng := net.Engine()
	var send func()
	send = func() {
		net.Unicast(7, h0, h1, 1500, 1)
		if eng.Now()+10*sim.Microsecond < duration {
			eng.After(10*sim.Microsecond, send)
		}
	}
	eng.Schedule(0, send)
	eng.RunUntil(duration + 2*sim.Millisecond)
	out.delivered = net.Delivered()
	out.dropped = net.Dropped()
	return out
}

func TestReconvergenceAfterCutAndRepair(t *testing.T) {
	out := runReconvergence(t, DropInFlight)

	if out.dupes != 0 {
		t.Errorf("%d duplicate deliveries", out.dupes)
	}
	if out.dropped == 0 {
		t.Error("no packets dropped during the blackhole window")
	}
	// Windows: 0-2ms before, 2-2.5ms blackhole, 2.5-6ms rerouted,
	// 6ms+ repaired. Delivery must resume after reconvergence and stay
	// up after repair.
	window := func(ms float64) int { return int(ms * 2) }
	for _, w := range []int{window(0), window(1)} {
		if out.perWindow[w] == 0 {
			t.Errorf("window %d (before cut): nothing delivered", w)
		}
	}
	blackhole := out.perWindow[window(2)]
	for _, w := range []int{window(3), window(4), window(5)} {
		if out.perWindow[w] == 0 {
			t.Errorf("window %d (rerouted): delivery did not resume", w)
		}
		if out.perWindow[w] <= blackhole {
			t.Errorf("window %d (rerouted): %d delivered, not above blackhole window's %d",
				w, out.perWindow[w], blackhole)
		}
	}
	for _, w := range []int{window(7), window(8), window(9)} {
		if out.perWindow[w] == 0 {
			t.Errorf("window %d (repaired): nothing delivered", w)
		}
	}

	want := []string{
		fmt.Sprintf("%s repair=false reconv=false dead=1", out.changesEvent()),
		fmt.Sprintf("%s repair=false reconv=true dead=1", out.changesEvent()),
		fmt.Sprintf("%s repair=true reconv=false dead=0", out.changesEvent()),
		fmt.Sprintf("%s repair=true reconv=true dead=0", out.changesEvent()),
	}
	if !reflect.DeepEqual(out.changes, want) {
		t.Errorf("fault changes:\n got %q\nwant %q", out.changes, want)
	}
}

// changesEvent extracts the event string prefix shared by all changes.
func (r faultRun) changesEvent() string {
	if len(r.changes) == 0 {
		return "?"
	}
	return r.changes[0][:strings.Index(r.changes[0], " repair=")]
}

func TestReconvergenceDeterministic(t *testing.T) {
	a := runReconvergence(t, DropInFlight)
	b := runReconvergence(t, DropInFlight)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("runs differ:\n a: %+v\n b: %+v", a, b)
	}
}

func TestDetourInFlightRedelivers(t *testing.T) {
	drop := runReconvergence(t, DropInFlight)
	detour := runReconvergence(t, DetourInFlight)
	if detour.dupes != 0 {
		t.Errorf("%d duplicate deliveries under detour", detour.dupes)
	}
	// Detouring can only save packets relative to dropping them.
	if detour.dropped > drop.dropped {
		t.Errorf("detour dropped %d > drop policy's %d", detour.dropped, drop.dropped)
	}
}

func TestApplyValidation(t *testing.T) {
	g := ring4(t)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	fi := net.Faults()
	cases := []struct {
		name string
		s    FaultSchedule
	}{
		{"unknown link", FaultSchedule{Events: []FaultEvent{{Kind: FaultLink, Link: 999, At: sim.Millisecond}}}},
		{"not a switch", FaultSchedule{Events: []FaultEvent{{Kind: FaultSwitch, Switch: g.Hosts()[0], At: sim.Millisecond}}}},
		{"fiber without resolver", FaultSchedule{Events: []FaultEvent{{Kind: FaultFiber, At: sim.Millisecond}}}},
		{"repair before injection", FaultSchedule{Events: []FaultEvent{{Kind: FaultLink, Link: 0, At: 2 * sim.Millisecond, RepairAt: sim.Millisecond}}}},
	}
	for _, tc := range cases {
		if err := fi.Apply(tc.s); err == nil {
			t.Errorf("%s: Apply accepted an invalid schedule", tc.name)
		}
	}
	if fi.DeadCount() != 0 {
		t.Errorf("rejected schedules left %d links dead", fi.DeadCount())
	}
	// Past injection times are rejected once the clock has advanced.
	net.Engine().Schedule(sim.Millisecond, func() {})
	net.Engine().Run()
	err = fi.Apply(FaultSchedule{Events: []FaultEvent{{Kind: FaultLink, Link: 0, At: sim.Microsecond}}})
	if err == nil {
		t.Error("Apply accepted an injection time in the past")
	}
}

func TestOverlappingFaultsRefcount(t *testing.T) {
	g := ring4(t)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	s0 := g.Switches()[0]
	var onS0 []topology.LinkID
	for _, p := range g.Ports(s0) {
		onS0 = append(onS0, p.Link)
	}
	shared := onS0[0]

	fi := net.Faults()
	// A switch failure and a link failure overlap on one link: the link
	// must stay down until both are repaired.
	if err := fi.Apply(FaultSchedule{
		Events: []FaultEvent{
			{Kind: FaultSwitch, Switch: s0, At: sim.Millisecond, RepairAt: 3 * sim.Millisecond},
			{Kind: FaultLink, Link: shared, At: sim.Millisecond, RepairAt: 5 * sim.Millisecond},
		},
		DetectionDelay: 100 * sim.Microsecond,
	}); err != nil {
		t.Fatal(err)
	}
	eng := net.Engine()
	check := func(at sim.Time, wantDead bool) {
		eng.Schedule(at, func() {
			if got := fi.Dead()[shared]; got != wantDead {
				t.Errorf("at %v: link %d dead = %v, want %v", at, shared, got, wantDead)
			}
		})
	}
	check(2*sim.Millisecond, true)  // both faults active
	check(4*sim.Millisecond, true)  // switch repaired, link fault holds it
	check(6*sim.Millisecond, false) // both repaired
	eng.Run()
	if fi.DeadCount() != 0 {
		t.Errorf("%d links still dead after all repairs", fi.DeadCount())
	}
}

func TestHostUplinkCutAndRepair(t *testing.T) {
	g := ring4(t)
	log := &dropLog{}
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	net.SetProbe(log)
	h0, h1 := g.Hosts()[0], g.Hosts()[1]
	s0 := g.ToRof(h0)
	uplink, _ := g.FindLink(h0, s0)
	cutLink(t, net, uplink.ID, sim.Millisecond)
	eng := net.Engine()
	net.Unicast(1, h0, h1, 400, 0)
	eng.RunUntil(sim.Millisecond / 2)
	if len(log.drops) != 1 {
		t.Fatalf("dropped = %d, want 1 (host uplink down)", len(log.drops))
	}
	eng.RunUntil(sim.Millisecond)
	net.Unicast(2, h0, h1, 400, 0)
	eng.RunUntil(2 * sim.Millisecond)
	if net.Delivered() != 1 {
		t.Errorf("delivered = %d after repair, want 1", net.Delivered())
	}
}

func TestFaultObserverProbe(t *testing.T) {
	g := ring4(t)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewTraceRecorder(0)
	net.SetProbe(Probes(rec))
	if err := net.Faults().Apply(FaultSchedule{
		Events:         []FaultEvent{{Kind: FaultLink, Link: 0, At: sim.Millisecond}},
		DetectionDelay: 100 * sim.Microsecond,
	}); err != nil {
		t.Fatal(err)
	}
	net.Engine().Run()
	var faults, reconv int
	for _, ev := range rec.Events() {
		if ev.Op != TraceFault {
			continue
		}
		faults++
		if strings.HasPrefix(ev.Reason, "reconverged") {
			reconv++
		}
	}
	if faults != 2 || reconv != 1 {
		t.Errorf("trace recorded %d fault rows (%d reconverged), want 2 (1)", faults, reconv)
	}
}
