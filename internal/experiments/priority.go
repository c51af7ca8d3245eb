package experiments

import (
	"fmt"
	"strings"

	"github.com/quartz-dcn/quartz/internal/sim"
)

// PriorityRow reports the prototype RPC's latency under heavy
// cross-traffic for one topology and queueing discipline.
type PriorityRow struct {
	Topology   string
	Discipline string // "fifo" or "priority"
	// RTTUs is the mean RPC round trip in µs.
	RTTUs float64
}

// priorityCell is one RPC run: a prototype wiring, with the RPC in the
// bulk traffic's class or above it.
type priorityCell struct {
	quartz, prioritize bool
}

// priorityGrid puts DeTail-style priority queueing (§2.1.4) against the
// architectural fix: the §6 prototype cross-traffic experiment at
// 3x200 Mb/s, with the RPC either sharing FIFO queues with the bulk
// traffic or riding a strict high-priority class.
//
// Priorities rescue the tree's RPC from queueing — but cannot remove
// the extra hop or help the bulk traffic itself, while the Quartz mesh
// needs no packet classification at all: its per-pair channels keep
// the RPC isolated under FIFO.
var priorityGrid = Grid[priorityCell, float64, []PriorityRow]{
	Name: "prio",
	Cells: func(Params) []priorityCell {
		return []priorityCell{{false, false}, {false, true}, {true, false}, {true, true}}
	},
	Run: func(p Params, c priorityCell, sh Shared) (float64, error) {
		cross := crossTraffic{rate: 200 * sim.Mbps, priority: 1, rpcPriority: 1, seed: p.Seed}
		if c.prioritize {
			cross.rpcPriority = 0
		}
		rtt, _, err := runRPC("prio", c.quartz, p.RPCs, cross, sh)
		return rtt, err
	},
	Merge: func(_ Params, cells []priorityCell, rtts []float64) ([]PriorityRow, error) {
		rows := make([]PriorityRow, len(cells))
		for i, c := range cells {
			disc := "fifo"
			if c.prioritize {
				disc = "priority"
			}
			rows[i] = PriorityRow{Topology: wiringName(c.quartz), Discipline: disc, RTTUs: rtts[i]}
		}
		return rows, nil
	},
	Render: func(rows []PriorityRow) Output { return Output{Text: RenderPriority(rows)} },
}

// RenderPriority renders the comparison.
func RenderPriority(rows []PriorityRow) string {
	var b strings.Builder
	b.WriteString("Priority queueing vs topology (§2.1.4 / DeTail): RPC under 3x200 Mb/s cross-traffic\n")
	fmt.Fprintf(&b, "%-16s %-10s %12s\n", "topology", "discipline", "RTT (us)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-10s %12.1f\n", r.Topology, r.Discipline, r.RTTUs)
	}
	return b.String()
}
