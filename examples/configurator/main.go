// Configurator: should your datacenter use Quartz? (§4.4, Table 8.)
// examples/scenarios/table8.json prices each deployment size with the
// calibrated 2014 parts catalog and simulates its latency: the baseline
// tree against the Quartz option the paper recommends at that size.
//
//	go run ./examples/configurator   # from the repository root
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/quartz-dcn/quartz"
)

func main() {
	doc, err := os.ReadFile("examples/scenarios/table8.json")
	if err != nil {
		log.Fatal(err)
	}
	out, err := quartz.RunScenario(context.Background(), doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out.Text)
}
