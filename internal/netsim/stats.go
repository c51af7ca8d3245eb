package netsim

import (
	"sort"

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
