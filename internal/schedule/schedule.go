// Package schedule implements a Hedera/DeTail-style centralized flow
// scheduler on top of the packet simulator — the class of systems the
// paper positions itself against in §2.1.4 ("DeTail reduces network
// latency by detecting congestion and selecting alternative uncongested
// paths", Hedera performs "network-wide flow scheduling").
//
// The scheduler periodically samples port utilization, identifies the
// flows pinned to the hottest ports, and re-pins them to the
// least-loaded of their alternative equal-cost paths. It exists both as
// a usable congestion-aware router and as the experimental apparatus
// for the paper's argument that such schedulers are "limited by the
// amount of path diversity in the underlying network topology": on a
// 2-tier tree there is nowhere to move a flow; on a Quartz mesh with
// VLB there always is.
package schedule

import (
	"fmt"
	"sort"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// Router is a routing.Router whose per-flow path choices can be
// overridden at runtime by the scheduler. Unscheduled flows fall back
// to the base router.
type Router struct {
	base routing.Router
	g    *topology.Graph
	// overrides pins a flow to an explicit node path (switch-level,
	// ending at the destination host).
	overrides map[routing.FlowID][]topology.NodeID
}

// NewRouter wraps base with an override table.
func NewRouter(g *topology.Graph, base routing.Router) *Router {
	return &Router{base: base, g: g, overrides: make(map[routing.FlowID][]topology.NodeID)}
}

// Name implements routing.Router.
func (r *Router) Name() string { return "scheduled(" + r.base.Name() + ")" }

// Pin forces a flow onto the given node path (from the source's ToR to
// the destination host, inclusive). The path's links must exist.
func (r *Router) Pin(f routing.FlowID, path []topology.NodeID) error {
	if len(path) < 2 {
		return fmt.Errorf("schedule: path too short")
	}
	for i := 0; i+1 < len(path); i++ {
		if _, ok := r.g.FindLink(path[i], path[i+1]); !ok {
			return fmt.Errorf("schedule: no link %d-%d on pinned path", path[i], path[i+1])
		}
	}
	r.overrides[f] = path
	return nil
}

// NextPort implements routing.Router.
func (r *Router) NextPort(n topology.NodeID, pkt routing.PacketMeta) (topology.Port, error) {
	path, ok := r.overrides[pkt.Flow]
	if !ok {
		return r.base.NextPort(n, pkt)
	}
	for i, node := range path[:len(path)-1] {
		if node == n {
			next := path[i+1]
			for _, p := range r.g.Ports(n) {
				if p.Peer == next {
					return p, nil
				}
			}
			return topology.Port{}, fmt.Errorf("schedule: missing link on pinned path at %d", n)
		}
	}
	// Off the pinned path (e.g. the source host itself): defer to base.
	return r.base.NextPort(n, pkt)
}

// FlowInfo registers a flow with the scheduler: its endpoints, so
// alternative paths can be computed.
type FlowInfo struct {
	Flow     routing.FlowID
	Src, Dst topology.NodeID
}

// Scheduler periodically rebalances registered flows away from hot
// ports.
type Scheduler struct {
	net    *netsim.Network
	router *Router
	g      *topology.Graph
	flows  []FlowInfo
	// Interval between scheduling rounds.
	Interval sim.Time
	// HotUtilization is the port busy-fraction above which flows are
	// moved (default 0.7).
	HotUtilization float64
	// MaxAlternatives bounds the k-shortest-path search per flow.
	MaxAlternatives int

	lastStats map[statKey]portSnapshot
	lastAt    sim.Time
	moves     int
}

type statKey struct {
	link topology.LinkID
	from topology.NodeID
}

type portSnapshot struct {
	busy sim.Time
}

// New creates a scheduler over the given network and scheduled router.
func New(net *netsim.Network, router *Router, flows []FlowInfo) *Scheduler {
	return &Scheduler{
		net:             net,
		router:          router,
		g:               net.Graph(),
		flows:           flows,
		Interval:        500 * sim.Microsecond,
		HotUtilization:  0.7,
		MaxAlternatives: 4,
		lastStats:       make(map[statKey]portSnapshot),
	}
}

// Moves returns how many flow re-pins the scheduler has performed.
func (s *Scheduler) Moves() int { return s.moves }

// Start arms the periodic scheduling loop until the given absolute
// virtual time.
func (s *Scheduler) Start(until sim.Time) {
	eng := s.net.Engine()
	var tick func()
	tick = func() {
		if eng.Now() >= until {
			return
		}
		s.round()
		eng.After(s.Interval, tick)
	}
	eng.After(s.Interval, tick)
}

// round performs one scheduling pass: find hot ports since the last
// round and move one flow off each.
func (s *Scheduler) round() {
	now := s.net.Engine().Now()
	window := now - s.lastAt
	stats := s.net.Stats()
	hot := make(map[statKey]bool)
	for _, ps := range stats {
		key := statKey{ps.Link, ps.From}
		prev := s.lastStats[key]
		if window > 0 {
			busyFrac := (ps.BusyTime - prev.busy).Seconds() / window.Seconds()
			if busyFrac >= s.HotUtilization {
				hot[key] = true
			}
		}
		s.lastStats[key] = portSnapshot{busy: ps.BusyTime}
	}
	s.lastAt = now
	if len(hot) == 0 {
		return
	}
	// Move each flow whose current path crosses a hot port to its
	// coolest alternative.
	for _, f := range s.flows {
		cur := s.currentPath(f)
		if cur == nil || !s.pathHot(cur, hot) {
			continue
		}
		if alt := s.coolestAlternative(f, hot); alt != nil {
			if err := s.router.Pin(f.Flow, alt); err == nil {
				s.moves++
			}
		}
	}
}

// currentPath reconstructs the switch-level path flow f takes now.
func (s *Scheduler) currentPath(f FlowInfo) []topology.NodeID {
	n := s.g.ToRof(f.Src)
	pkt := routing.PacketMeta{Flow: f.Flow, Src: f.Src, Dst: f.Dst, Waypoint: -1}
	path := []topology.NodeID{n}
	for hops := 0; hops < 16; hops++ {
		port, err := s.router.NextPort(n, pkt)
		if err != nil {
			return nil
		}
		path = append(path, port.Peer)
		if port.Peer == f.Dst {
			return path
		}
		n = port.Peer
	}
	return nil
}

// pathHot reports whether any hop of the path crosses a hot port.
func (s *Scheduler) pathHot(path []topology.NodeID, hot map[statKey]bool) bool {
	for i := 0; i+1 < len(path); i++ {
		l, ok := s.g.FindLink(path[i], path[i+1])
		if !ok {
			continue
		}
		if hot[statKey{l.ID, path[i]}] {
			return true
		}
	}
	return false
}

// coolestAlternative returns a loop-free alternative path avoiding hot
// ports, or nil if none exists — the "limited by path diversity" case.
func (s *Scheduler) coolestAlternative(f FlowInfo, hot map[statKey]bool) []topology.NodeID {
	alts := routing.KShortestPaths(s.g, s.g.ToRof(f.Src), f.Dst, s.MaxAlternatives)
	sort.SliceStable(alts, func(i, j int) bool { return len(alts[i]) < len(alts[j]) })
	for _, alt := range alts {
		if !s.pathHot(alt, hot) {
			return alt
		}
	}
	return nil
}
