package netsim

import (
	"sort"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// PortStats reports one directed link's counters.
type PortStats struct {
	Link topology.LinkID
	// From is the transmitting endpoint.
	From topology.NodeID
	// Packets and Bytes count transmitted traffic.
	Packets uint64
	Bytes   uint64
	// Drops counts packets lost to a full queue.
	Drops uint64
	// BusyTime is the total time the port spent transmitting.
	BusyTime sim.Time
}

// Utilization returns the port's busy fraction over the given interval.
func (p PortStats) Utilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return p.BusyTime.Seconds() / elapsed.Seconds()
}

// Stats returns counters for every directed link, ordered by link then
// direction.
func (n *Network) Stats() []PortStats {
	out := make([]PortStats, 0, len(n.dirs))
	for i := range n.dirs {
		dl := &n.dirs[i]
		l := n.g.Link(topology.LinkID(i / 2))
		from := l.A
		if i%2 == 1 {
			from = l.B
		}
		out = append(out, PortStats{
			Link:     l.ID,
			From:     from,
			Packets:  dl.txPackets,
			Bytes:    dl.txBytes,
			Drops:    dl.drops,
			BusyTime: dl.busyTime,
		})
	}
	return out
}

// HottestPorts returns the k busiest directed links by bytes sent.
func (n *Network) HottestPorts(k int) []PortStats {
	stats := n.Stats()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Bytes > stats[j].Bytes })
	if k > len(stats) {
		k = len(stats)
	}
	return stats[:k]
}

// FailLink marks a link as failed in both directions: packets routed
// onto it are dropped (counted with reason "link down"). Routing tables
// are not touched, so traffic pinned to the dead link is lost.
//
// Deprecated: use Faults() — FaultInjector.Apply schedules failures at
// virtual times with detection delay and route reconvergence. FailLink
// remains as a thin wrapper with its historical instant, silent
// semantics.
func (n *Network) FailLink(id topology.LinkID) error {
	return n.Faults().forceLink(id, true)
}

// RestoreLink clears a failure set by FailLink.
//
// Deprecated: use Faults(); see FailLink.
func (n *Network) RestoreLink(id topology.LinkID) error {
	return n.Faults().forceLink(id, false)
}

// SetRouter swaps the forwarding strategy mid-run (e.g. after a
// failure, install a router computed on the degraded topology).
// In-flight packets finish their current hop under the old choice.
func (n *Network) SetRouter(r routing.Router) {
	if r == nil {
		panic("netsim: SetRouter(nil)")
	}
	n.router = r
}
