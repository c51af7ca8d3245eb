// Quickstart: plan the paper's flagship 1056-port ring (33 switches x 32
// servers, §3.2), then run examples/scenarios/quickstart.json — two
// scatter tasks across that ring. ECMP on the mesh always takes the
// direct channel (§3.4): two 380 ns switch hops per packet.
//
//	go run ./examples/quickstart   # from the repository root
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/quartz-dcn/quartz"
)

func describe(ring *quartz.Ring) {
	ports, size := quartz.MaxPortsSingleRing(64)
	fmt.Println(ring)
	fmt.Printf("64-port switches reach %d ports at ring size %d\n", ports, size)
	fmt.Printf("wavelengths: %d used (proven minimum %d); max on any fiber link: %d\n",
		ring.Channels(), quartz.OptimalChannels(size), ring.Plan.MaxLinkLoad())
	fmt.Printf("wiring: %d fiber cables — two per switch per physical ring\n\n", ring.WiringComplexity())
}

func main() {
	ring, err := quartz.NewRing(quartz.RingConfig{Switches: 33, HostsPerSwitch: 32})
	if err != nil {
		log.Fatal(err)
	}
	describe(ring)

	doc, err := os.ReadFile("examples/scenarios/quickstart.json")
	if err != nil {
		log.Fatal(err)
	}
	out, err := quartz.RunScenario(context.Background(), doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out.Text)
}
