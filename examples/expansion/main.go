// Expansion: grow a Quartz ring in place (§8) with the planning API —
// "switches and WDMs can be added as needed". A 12-switch ring grows to
// 16 and then 24; each step reports how many transceivers keep their
// wavelength, how many retune, and the amplifier plan.
//
//	go run ./examples/expansion
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/quartz-dcn/quartz"
)

// grow expands plan to m switches and reports what the operator sees.
func grow(plan *quartz.ChannelPlan, m int, rng *rand.Rand) *quartz.ChannelPlan {
	next, stats, err := quartz.ExpandPlan(plan, m, rng)
	if err != nil {
		log.Fatal(err)
	}
	budget, err := quartz.PlanAmplifiers(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(stats)
	fmt.Printf("  amplifiers now: %d (one per %d switches); optimum for %d switches: %d channels\n",
		budget.Amplifiers, budget.AmpAfterHops, m, quartz.OptimalChannels(m))
	return next
}

func main() {
	rng := rand.New(rand.NewSource(8))
	plan := quartz.GreedyChannels(12, rng)
	fmt.Printf("initial ring: 12 switches, %d wavelengths; one fiber carries rings up to %d switches\n",
		plan.Channels, quartz.MaxRingSize(160))
	for _, m := range []int{16, 24} {
		plan = grow(plan, m, rng)
	}
}
