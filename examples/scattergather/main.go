// Scatter/gather: an MPI-style workload as concurrent tasks are added
// (cf. Figure 17), run from examples/scenarios/scattergather.json — one
// packet-level simulation swept over placement x tasks. The three-tier
// tree's store-and-forward core congests; all-cut-through Quartz stays flat.
//
//	go run ./examples/scattergather   # from the repository root
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/quartz-dcn/quartz"
)

func main() {
	doc, err := os.ReadFile("examples/scenarios/scattergather.json")
	if err != nil {
		log.Fatal(err)
	}
	out, err := quartz.RunScenario(context.Background(), doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out.Text)
}
