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

	"github.com/quartz-dcn/quartz/internal/optics"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/wdm"
)

// RingConfig describes a Quartz ring deployment.
type RingConfig struct {
	// Switches is M, the number of ToR switches on the ring (>= 2).
	Switches int
	// HostsPerSwitch is n, the server-facing ports used per switch.
	HostsPerSwitch int
}

// ringSwitchPorts is a ring switch's port count, the ULL limit: each
// switch needs HostsPerSwitch + Switches-1 of them. Every ring link runs
// at NewFullMesh's 10 Gb/s and the optics are optics.DefaultParts.
const ringSwitchPorts = 64

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
// channel plan with the paper's greedy heuristic (deterministically),
// splits it across the minimum number of physical fiber rings that fit
// it in 80-channel commodity muxes, and places amplifiers.
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
	need := cfg.HostsPerSwitch + cfg.Switches - 1
	if need > ringSwitchPorts {
		return nil, fmt.Errorf("core: switch needs %d ports (%d hosts + %d peers), only %d available",
			need, cfg.HostsPerSwitch, cfg.Switches-1, ringSwitchPorts)
	}

	plan := wdm.Greedy(cfg.Switches, nil)
	rings := max((plan.Channels+wdm.CommodityMuxChannels-1)/wdm.CommodityMuxChannels, 1)
	split, err := wdm.SplitAcrossRings(plan, rings, wdm.CommodityMuxChannels)
	if err != nil {
		return nil, fmt.Errorf("core: splitting channel plan: %w", err)
	}
	if err := split.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid channel plan: %w", err)
	}

	budget, err := optics.PlanRing(cfg.Switches, optics.DefaultParts)
	if err != nil {
		return nil, fmt.Errorf("core: optical budget: %w", err)
	}
	if err := optics.ValidateRing(budget, optics.DefaultParts, hopKm); err != nil {
		return nil, fmt.Errorf("core: optical budget: %w", err)
	}

	g, err := topology.NewFullMesh(topology.MeshConfig{
		Switches:       cfg.Switches,
		HostsPerSwitch: cfg.HostsPerSwitch,
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
