package core

import (
	"math/rand"
	"slices"

	"github.com/quartz-dcn/quartz/internal/cost"
)

// Design is one of the eight architectures the paper compares (§7's
// Figure 15(a)–(d), Jellyfish and Quartz in Jellyfish, Table 8's two-tier
// tree and single ring) under every name the repository gives it:
// Designs is the one place those names meet a constructor or a price.
type Design struct {
	Name         string // Architecture.Name of what Build returns: the experiments' label
	Alias        string // quartzsim's -arch value
	Kind, Quartz string // the scenario document's sim.topology.kind and .quartz
	Random       bool   // Build draws from its RNG; the others may be given nil
	Build        func(ArchParams, *rand.Rand) (*Architecture, error)
	// Cost prices the design for a number of servers from a parts
	// catalog (Table 8); nil for the two Jellyfish designs.
	Cost func(servers int, c cost.Catalog) (*cost.BOM, error)
}

// Designs is the catalogue, in the order of quartzsim's -arch help.
var Designs = []Design{
	{"three-tier tree", "tree3", "tree3", "none", false, seedless(ThreeTierTree), priced(cost.ThreeTierTree)},
	{"two-tier tree", "tree2", "tree2", "none", false, seedless(TwoTierTreeArch), priced(cost.TwoTierTree)},
	{"single Quartz ring", "ring", "ring", "none", false, seedless(QuartzRingArch), cost.QuartzRing},
	{"quartz in core", "core", "tree3", "core", false, seedless(QuartzInCore), priced(cost.QuartzCore)},
	{"quartz in edge", "edge", "tree3", "edge", false, seedless(QuartzInEdge), priced(cost.QuartzEdge)},
	{"quartz in edge and core", "edgecore", "tree3", "both", false, seedless(QuartzInEdgeAndCore), priced(cost.QuartzEdgeAndCore)},
	{"jellyfish", "jellyfish", "jellyfish", "none", true, Jellyfish, nil},
	{"quartz in jellyfish", "qjellyfish", "jellyfish", "edge", true, QuartzInJellyfish, nil},
}

func seedless(build func(ArchParams) (*Architecture, error)) func(ArchParams, *rand.Rand) (*Architecture, error) {
	return func(p ArchParams, _ *rand.Rand) (*Architecture, error) { return build(p) }
}

func priced(bom func(int, cost.Catalog) *cost.BOM) func(int, cost.Catalog) (*cost.BOM, error) {
	return func(servers int, c cost.Catalog) (*cost.BOM, error) { return bom(servers, c), nil }
}

// FindDesign returns the first of Designs that match accepts.
func FindDesign(match func(Design) bool) (Design, bool) {
	if i := slices.IndexFunc(Designs, match); i >= 0 {
		return Designs[i], true
	}
	return Design{}, false
}
