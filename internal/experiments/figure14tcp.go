package experiments

import (
	"fmt"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/tcp"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// Figure14TCPRow is one point of the TCP variant: normalized RPC
// latency with the given number of bulk TCP cross-flows.
type Figure14TCPRow struct {
	Sources     int
	TwoTierTree float64
	Quartz      float64
}

// figure14TCPCell is one RPC run: a prototype wiring under a number of
// bulk TCP sources.
type figure14TCPCell struct {
	sources int
	quartz  bool
}

// figure14TCPGrid is an extension of the §6.1 prototype experiment: the
// cross-traffic is carried by unthrottled bulk TCP connections instead
// of the paper's paced 20-packet bursts. TCP's self-clocking parks a
// standing queue at whatever link saturates first, so the contrast is
// starker than Figure 14's: the tree's RPC shares its aggregation
// trunk with every bulk flow and slows down dramatically, while the
// Quartz mesh isolates the RPC completely — even the bulk flow that
// shares the RPC's own S2-S3 channel cannot congest it, because a
// single 1 Gb/s source cannot oversubscribe a dedicated 1 Gb/s channel
// (its standing queue forms at its own access link instead). The
// full mesh turns cross-traffic interference into a same-rack-only
// phenomenon.
//
// The x-axis is the number of active bulk sources (0..3): first the
// two servers on S4, then the second server on S2 (co-channel with the
// RPC in the mesh). The grid is 4 source counts × 2 wirings,
// count-major with the tree first; the sources-0 cells are the
// baselines each wiring is normalized by.
var figure14TCPGrid = Grid[figure14TCPCell, float64, []Figure14TCPRow]{
	Name: "fig14tcp",
	Cells: func(Params) []figure14TCPCell {
		var cells []figure14TCPCell
		for sources := 0; sources <= 3; sources++ {
			cells = append(cells, figure14TCPCell{sources, false}, figure14TCPCell{sources, true})
		}
		return cells
	},
	Run: func(p Params, c figure14TCPCell, sh Shared) (float64, error) {
		mean, _, err := runRPC("fig14tcp", c.quartz, p.RPCs, sh, func(tb testbed, _ *traffic.RPC) error {
			// S4's servers first (disjoint from the RPC in the mesh), then
			// the S2 server that shares the RPC's direct channel.
			for i, src := range []topology.NodeID{tb.hosts[4], tb.hosts[5], tb.hosts[1]}[:c.sources] {
				conn, err := tcp.New(tcp.Config{
					Net: tb.net, Harness: tb.h,
					Src: src, Dst: tb.hosts[3],
					Flow:    routing.FlowID(2000 + 10*i),
					DataTag: 100 + 2*i, AckTag: 101 + 2*i,
				})
				if err != nil {
					return err
				}
				conn.Start()
			}
			return nil
		})
		return mean, err
	},
	Merge: func(_ Params, cells []figure14TCPCell, means []float64) ([]Figure14TCPRow, error) {
		treeBase, quartzBase := means[0], means[1]
		rows := make([]Figure14TCPRow, 0, len(cells)/2)
		for i := 0; i < len(cells); i += 2 {
			rows = append(rows, Figure14TCPRow{
				Sources:     cells[i].sources,
				TwoTierTree: means[i] / treeBase,
				Quartz:      means[i+1] / quartzBase,
			})
		}
		return rows, nil
	},
	Render: func(rows []Figure14TCPRow) Output { return Output{Text: RenderFigure14TCP(rows)} },
}

// RenderFigure14TCP renders the TCP-cross-traffic variant.
func RenderFigure14TCP(rows []Figure14TCPRow) string {
	s := "Figure 14 (TCP variant): normalized RPC latency vs bulk TCP cross-flows\n"
	s += fmt.Sprintf("%14s %16s %12s\n", "TCP sources", "two-tier tree", "quartz")
	for _, r := range rows {
		s += fmt.Sprintf("%14d %16.2f %12.2f\n", r.Sources, r.TwoTierTree, r.Quartz)
	}
	return s
}
