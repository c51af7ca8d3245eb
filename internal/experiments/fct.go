package experiments

import (
	"fmt"
	"strings"

	"github.com/quartz-dcn/quartz/internal/metrics"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/tcp"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// FCTRow reports short-flow completion times for one topology and
// congestion-control mode.
type FCTRow struct {
	Topology string
	Mode     tcp.Mode
	// MeanUs and P99Us are flow completion times in microseconds.
	MeanUs, P99Us float64
	Flows         int
}

// fctCell is one run: a prototype wiring under one congestion-control
// mode.
type fctCell struct {
	quartz bool
	mode   tcp.Mode
}

// fctFlows is how many short flows each run completes.
const fctFlows = 150

// fctGrid measures the completion time of short (15 KB) flows that
// share the network with bulk TCP cross-traffic, on the prototype tree
// and mesh wirings, under Reno and DCTCP. It combines the paper's two
// latency levers: topology (the mesh removes the shared trunk) and
// protocol (DCTCP keeps the remaining queues short) — quantifying
// §2.1.4's claim that protocol fixes are "limited by the amount of path
// diversity in the underlying network topology".
var fctGrid = Grid[fctCell, FCTRow, []FCTRow]{
	Name: "fct",
	Cells: func(Params) []fctCell {
		return []fctCell{{false, tcp.Reno}, {false, tcp.DCTCP}, {true, tcp.Reno}, {true, tcp.DCTCP}}
	},
	Run: func(_ Params, c fctCell, sh Shared) (FCTRow, error) {
		mean, p99, n, err := runFCT(c.quartz, c.mode, fctFlows, sh)
		return FCTRow{Topology: wiringName(c.quartz), Mode: c.mode, MeanUs: mean, P99Us: p99, Flows: n}, err
	},
	Merge:  func(_ Params, _ []fctCell, rows []FCTRow) ([]FCTRow, error) { return rows, nil },
	Render: func(rows []FCTRow) Output { return Output{Text: RenderFCT(rows)} },
}

func runFCT(quartz bool, mode tcp.Mode, flows int, sh Shared) (mean, p99 float64, n int, err error) {
	// The prototype's 1 Gb/s switches with ECN marking at 30 KB, as
	// DCTCP recommends for gigabit links.
	model := prototypeSwitch
	model.ECNThresholdBytes = 30_000
	tb, err := newTestbed(quartz, model)
	if err != nil {
		return 0, 0, 0, err
	}
	net, h, hosts := tb.net, tb.h, tb.hosts
	defer sh.ran(net)
	// Background: two bulk flows from S4's servers into the second
	// server on S3 — through the shared trunk on the tree, around it on
	// the mesh.
	for i, src := range []topology.NodeID{hosts[4], hosts[5]} {
		bulk, err := tcp.New(tcp.Config{
			Net: net, Harness: h,
			Src: src, Dst: hosts[3],
			Flow: routing.FlowID(5000 + 10*i), Mode: mode,
			DataTag: 500 + 2*i, AckTag: 501 + 2*i,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		bulk.Start()
	}
	// Foreground: sequential 15 KB flows from the first server on S2 to
	// the first on S3 (the RPC pair of Figure 13).
	var fcts metrics.Sample
	eng := net.Engine()
	done := 0
	var launch func()
	launch = func() {
		if done >= flows {
			return
		}
		tagBase := 1000 + 4*done
		conn, cerr := tcp.New(tcp.Config{
			Net: net, Harness: h,
			Src: hosts[0], Dst: hosts[2],
			Flow:    routing.FlowID(9000 + uint64(done)),
			DataTag: tagBase, AckTag: tagBase + 1,
			Bytes: 15_000, Mode: mode,
			OnComplete: func(fct sim.Time) {
				fcts.Add(fct.Micros())
				done++
				eng.After(50*sim.Microsecond, launch)
			},
		})
		if cerr != nil {
			err = cerr
			eng.Stop()
			return
		}
		conn.Start()
	}
	// Let the bulk flows ramp before measuring.
	eng.After(5*sim.Millisecond, launch)
	for done < flows && eng.Pending() > 0 {
		eng.RunUntil(eng.Now() + 20*sim.Millisecond)
		if err != nil {
			return 0, 0, 0, err
		}
		if eng.Now() > testbedLimit {
			return 0, 0, 0, fmt.Errorf("fct: short flows starved (completed %d/%d)", done, flows)
		}
	}
	return fcts.Mean(), fcts.Percentile(99), fcts.N(), nil
}

// RenderFCT renders the comparison.
func RenderFCT(rows []FCTRow) string {
	var b strings.Builder
	b.WriteString("Flow completion time: 15 KB flows under bulk TCP cross-traffic\n")
	fmt.Fprintf(&b, "%-16s %-8s %12s %12s %8s\n", "topology", "cctrl", "mean (us)", "p99 (us)", "flows")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-8s %12.1f %12.1f %8d\n", r.Topology, r.Mode, r.MeanUs, r.P99Us, r.Flows)
	}
	return b.String()
}
