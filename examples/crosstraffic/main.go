// Cross-traffic: the paper's prototype experiment (§6.1, Figure 14).
//
// A latency-sensitive RPC runs between two racks while bursty bulk
// traffic from three other servers aims at the same destination rack.
// On a two-tier tree the shared aggregation uplink congests and the RPC
// slows down; on the Quartz mesh the direct per-pair channels keep the
// RPC almost unaffected.
//
// Run it with:
//
//	go run ./examples/crosstraffic
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/sim"
)

func main() {
	rows, err := experiments.Figure14Sweep(context.Background(), experiments.Params{Seed: 7, RPCs: 1000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("normalized RPC round-trip latency vs per-source cross-traffic:")
	fmt.Printf("%14s %16s %12s\n", "cross (Mb/s)", "two-tier tree", "quartz")
	for _, r := range rows {
		fmt.Printf("%14d %16.3f %12.3f\n",
			int64(r.CrossTraffic/sim.Mbps), r.TwoTierTree, r.Quartz)
	}
	last := rows[len(rows)-1]
	fmt.Printf("\nAt 200 Mb/s per source the tree RPC slowed by %.0f%%; Quartz moved %.0f%%.\n",
		100*(last.TwoTierTree-1), 100*(last.Quartz-1))
	fmt.Println("(cf. Figure 14: the tree rises steeply; Quartz stays flat.)")
}
