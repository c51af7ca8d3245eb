// Package core implements the paper's primary contribution: the Quartz
// design element — a full mesh of low-latency switches physically
// realized as a WDM ring — and its placements in larger datacenter
// networks (§4): whole-DCN ring, Quartz in the edge, in the core, in
// both, and inside a Jellyfish-style random topology.
//
// A Ring bundles everything a deployment needs: the logical full-mesh
// topology, the wavelength channel plan (§3.1), the optical power
// budget with amplifier placement (§3.3), and the multi-fiber split for
// fault tolerance (§3.5).
package core

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/quartz-dcn/quartz/internal/optics"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/wdm"
)

// RingConfig describes a Quartz ring deployment.
type RingConfig struct {
	// Switches is M, the number of ToR switches on the ring (>= 2).
	Switches int
	// HostsPerSwitch is n, the server-facing ports used per switch.
	HostsPerSwitch int
	// SwitchPorts is the switch port count (64, the ULL limit, when
	// zero). Each switch needs HostsPerSwitch + (Switches-1) ports.
	SwitchPorts int
	// HostRate and MeshRate set link speeds (both 10 Gb/s when zero).
	HostRate sim.Rate
	MeshRate sim.Rate
	// PhysicalRings forces a fiber ring count; zero selects the minimum
	// that fits the channel plan in 80-channel commodity muxes.
	PhysicalRings int
	// Parts selects optical components (optics.DefaultParts when zero).
	Parts optics.PartSpec
	// Rand seeds the channel-plan heuristic; nil is deterministic.
	Rand *rand.Rand
}

// Ring is a planned Quartz ring.
type Ring struct {
	Config RingConfig
	// Graph is the logical full mesh with hosts attached.
	Graph *topology.Graph
	// Plan is the wavelength assignment, split across physical rings.
	Plan *wdm.Plan
	// Budget is the amplifier/attenuator plan per physical ring.
	Budget optics.RingBudget
}

// NewRing plans a Quartz ring: it validates port budgets, computes the
// channel plan with the paper's greedy heuristic, splits it across the
// minimum number of physical fiber rings, and places amplifiers.
func NewRing(cfg RingConfig) (*Ring, error) {
	if cfg.Switches < 2 {
		return nil, fmt.Errorf("core: ring needs >= 2 switches, got %d", cfg.Switches)
	}
	if cfg.Switches > wdm.MaxRingSizeSingleFiber {
		return nil, fmt.Errorf("core: %d switches exceed the %d-switch fiber limit (%d channels); use multiple rings as a DCN element instead",
			cfg.Switches, wdm.MaxRingSizeSingleFiber, wdm.MaxChannelsPerFiber)
	}
	if cfg.HostsPerSwitch < 0 {
		return nil, fmt.Errorf("core: negative hosts per switch")
	}
	if cfg.SwitchPorts == 0 {
		cfg.SwitchPorts = 64
	}
	need := cfg.HostsPerSwitch + cfg.Switches - 1
	if need > cfg.SwitchPorts {
		return nil, fmt.Errorf("core: switch needs %d ports (%d hosts + %d peers), only %d available",
			need, cfg.HostsPerSwitch, cfg.Switches-1, cfg.SwitchPorts)
	}
	if cfg.HostRate == 0 {
		cfg.HostRate = 10 * sim.Gbps
	}
	if cfg.MeshRate == 0 {
		cfg.MeshRate = 10 * sim.Gbps
	}
	if cfg.Parts == (optics.PartSpec{}) {
		cfg.Parts = optics.DefaultParts
	}

	plan := wdm.Greedy(cfg.Switches, cfg.Rand)
	rings := cfg.PhysicalRings
	minRings := (plan.Channels + wdm.CommodityMuxChannels - 1) / wdm.CommodityMuxChannels
	if minRings == 0 {
		minRings = 1
	}
	if rings == 0 {
		rings = minRings
	}
	if rings < minRings {
		return nil, fmt.Errorf("core: %d channels need %d physical rings of %d-channel muxes, got %d",
			plan.Channels, minRings, wdm.CommodityMuxChannels, rings)
	}
	split, err := wdm.SplitAcrossRings(plan, rings, wdm.CommodityMuxChannels)
	if err != nil {
		return nil, fmt.Errorf("core: splitting channel plan: %w", err)
	}
	if err := split.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid channel plan: %w", err)
	}

	budget, err := optics.PlanRing(cfg.Switches, cfg.Parts)
	if err != nil {
		return nil, fmt.Errorf("core: optical budget: %w", err)
	}
	if err := optics.ValidateRing(budget, cfg.Parts, hopKm); err != nil {
		return nil, fmt.Errorf("core: optical budget: %w", err)
	}

	g, err := topology.NewFullMesh(topology.MeshConfig{
		Switches:       cfg.Switches,
		HostsPerSwitch: cfg.HostsPerSwitch,
		HostRate:       cfg.HostRate,
		MeshRate:       cfg.MeshRate,
	})
	if err != nil {
		return nil, err
	}
	g.Name = fmt.Sprintf("quartz(M=%d,n=%d,rings=%d)", cfg.Switches, cfg.HostsPerSwitch, rings)
	return &Ring{Config: cfg, Graph: g, Plan: split, Budget: budget}, nil
}

// Ports returns the usable server ports of the ring — the size of the
// single switch it mimics (§3.2: 32x33 = 1056 with 64-port switches).
func (r *Ring) Ports() int {
	return r.Config.Switches * r.Config.HostsPerSwitch
}

// Channels returns the number of wavelengths in use.
func (r *Ring) Channels() int { return r.Plan.Channels }

// WiringComplexity returns the number of cross-rack cables: two fiber
// connections per switch per physical ring (§3: "implementing a full
// mesh requires only two physical cables to connect to each Quartz
// switch").
func (r *Ring) WiringComplexity() int {
	return r.Config.Switches * r.Plan.Rings
}

func (r *Ring) String() string {
	return fmt.Sprintf("Quartz ring: %d switches x %d hosts (%d ports), %d channels on %d fiber ring(s), %d amplifiers",
		r.Config.Switches, r.Config.HostsPerSwitch, r.Ports(),
		r.Plan.Channels, r.Plan.Rings, r.Budget.Amplifiers*r.Plan.Rings)
}

// MaxPortsSingleRing returns the largest switch a single Quartz ring
// can mimic with switches of the given port count, and the ring size
// achieving it: with 64 ports, 33 switches x 32 hosts = 1056 (§3.2).
func MaxPortsSingleRing(switchPorts int) (ports, ringSize int) {
	best, bestM := 0, 0
	for m := 2; m <= wdm.MaxRingSizeSingleFiber; m++ {
		hosts := switchPorts - (m - 1)
		if hosts <= 0 {
			break
		}
		// Prefer the larger ring on ties: 32x33 and 33x32 both give
		// 1056, and the paper's configuration is the 33-switch one.
		if p := m * hosts; p >= best {
			best, bestM = p, m
		}
	}
	return best, bestM
}

// hopKm is the assumed fiber length of one ring hop: adjacent racks.
const hopKm = 0.05

// ringJSON is the shippable description of a planned deployment: what
// the device manufacturer would program at the factory (§3.1.1).
type ringJSON struct {
	Switches       int               `json:"switches"`
	HostsPerSwitch int               `json:"hostsPerSwitch"`
	Ports          int               `json:"ports"`
	Plan           *wdm.Plan         `json:"plan"`
	Budget         optics.RingBudget `json:"budget"`
}

// MarshalJSON serializes the deployment plan (topology parameters,
// wavelength assignments, amplifier budget).
func (r *Ring) MarshalJSON() ([]byte, error) {
	return json.Marshal(ringJSON{
		Switches:       r.Config.Switches,
		HostsPerSwitch: r.Config.HostsPerSwitch,
		Ports:          r.Ports(),
		Plan:           r.Plan,
		Budget:         r.Budget,
	})
}
