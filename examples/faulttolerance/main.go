// Fault tolerance: how many fiber cuts can a Quartz deployment absorb?
// examples/scenarios/figure6.json runs the registry's Figure 6 (§3.5): a
// 33-switch mesh on 1..4 fiber rings under 1..4 simultaneous cuts, its
// loss and partition probability computed exactly over every cut set.
// Set seed in the document to pick another greedy channel plan.
//
//	go run ./examples/faulttolerance   # from the repository root
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/quartz-dcn/quartz"
)

func main() {
	doc, err := os.ReadFile("examples/scenarios/figure6.json")
	if err != nil {
		log.Fatal(err)
	}
	out, err := quartz.RunScenario(context.Background(), doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out.Text)
}
