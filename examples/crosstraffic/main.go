// Cross-traffic: the paper's prototype experiment (§6.1, Figure 14), run
// from examples/scenarios/crosstraffic.json. Bursty bulk traffic aims at
// the rack a latency-sensitive RPC talks to: the two-tier tree's shared
// uplink slows the RPC, the mesh's direct channels keep it almost flat.
//
//	go run ./examples/crosstraffic   # from the repository root
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/quartz-dcn/quartz"
)

func main() {
	doc, err := os.ReadFile("examples/scenarios/crosstraffic.json")
	if err != nil {
		log.Fatal(err)
	}
	out, err := quartz.RunScenario(context.Background(), doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out.Text)
}
