package experiments

import (
	"fmt"
	"strings"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// StackRow is one end-to-end configuration of Table 2's component
// menu: a host stack, a NIC, a switch generation, and a topology.
type StackRow struct {
	Config string
	// RTTUs is the measured RPC round-trip time in microseconds.
	RTTUs float64
}

// Host models from Table 2.
var (
	// standardHost: 15 µs OS stack + 2.5 µs commodity NIC per side.
	standardHost = netsim.HostModel{
		NICLatency:     17_500 * sim.Nanosecond, // stack + NIC, paid per send/receive
		ForwardLatency: 15 * sim.Microsecond,
		BufferBytes:    1 << 20,
	}
	// tunedHost: Chronos-style kernel bypass (1 µs) + FPGA NIC (0.5 µs).
	tunedHost = netsim.HostModel{
		NICLatency:     1_500 * sim.Nanosecond,
		ForwardLatency: 15 * sim.Microsecond,
		BufferBytes:    1 << 20,
	}
)

// stackStep is one configuration of the stack walk: a host model over
// a named architecture (Shared.Arch), its switches optionally all
// replaced by one model.
type stackStep struct {
	name     string
	host     netsim.HostModel
	arch     string
	switches netsim.SwitchModel // zero keeps the architecture's own
}

// storeAndForward is a 6 µs store-and-forward switch.
var storeAndForward = netsim.SwitchModel{Latency: 6 * sim.Microsecond, CutThrough: false, BufferBytes: 1 << 20}

// stackSteps are the four cumulative steps, measured as a cross-rack
// RPC round trip:
//
//  1. standard stack + standard NIC, store-and-forward switches, 3-tier
//  2. tuned stack + tuned NIC, same network
//  3. tuned hosts, cut-through switches, same topology
//  4. tuned hosts, cut-through switches, Quartz mesh (2 hops)
var stackSteps = []stackStep{
	{"standard stack+NIC, SF switches, 3-tier", standardHost, "three-tier tree", storeAndForward},
	{"tuned stack+NIC, SF switches, 3-tier", tunedHost, "three-tier tree", storeAndForward},
	{"tuned hosts, cut-through switches, 3-tier", tunedHost, "three-tier tree", netsim.Arista7150},
	{"tuned hosts, cut-through switches, quartz mesh", tunedHost, "single Quartz ring", netsim.SwitchModel{}},
}

// stackGrid reproduces §1/§2's claim that combining the
// state-of-the-art components "can, in theory, result in an order of
// magnitude reduction in end-to-end network latency" — and that the
// architectural lever (Quartz) composes with them: one cell per step.
var stackGrid = Grid[stackStep, float64, []StackRow]{
	Name:  "stack",
	Cells: func(Params) []stackStep { return stackSteps },
	Run: func(_ Params, st stackStep, sh Shared) (float64, error) {
		arch, err := sh.Arch(Fabric{Name: st.arch})
		if err != nil {
			return 0, err
		}
		pk, err := sh.Build(PacketRun{Arch: arch, Host: st.host, Switches: st.switches}, nil)
		if err != nil {
			return 0, err
		}
		defer pk.Release()
		hosts := arch.Graph.Hosts()
		rpc := &traffic.RPC{
			Net: pk.Net, Harness: pk.Harness,
			Client: hosts[0], Server: hosts[len(hosts)-1],
			Count: 200, ReqTag: 1, ReplyTag: 2,
		}
		if err := rpc.Start(); err != nil {
			return 0, err
		}
		if err := sh.Run(pk.Net, sim.MaxTime); err != nil {
			return 0, err
		}
		return rpc.RTT.Mean(), nil
	},
	Merge: func(_ Params, steps []stackStep, rtts []float64) ([]StackRow, error) {
		rows := make([]StackRow, len(steps))
		for i, st := range steps {
			rows[i] = StackRow{Config: st.name, RTTUs: rtts[i]}
		}
		return rows, nil
	},
	Render: func(rows []StackRow) Output { return Output{Text: RenderStack(rows)} },
}

// RenderStack renders the cumulative comparison.
func RenderStack(rows []StackRow) string {
	var b strings.Builder
	b.WriteString("Table 2 composition: cross-rack RPC round trip by component generation\n")
	fmt.Fprintf(&b, "%-48s %12s %10s\n", "configuration", "RTT (us)", "speedup")
	base := rows[0].RTTUs
	for _, r := range rows {
		fmt.Fprintf(&b, "%-48s %12.2f %9.1fx\n", r.Config, r.RTTUs, base/r.RTTUs)
	}
	return b.String()
}
