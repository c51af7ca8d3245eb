package core

import (
	"fmt"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// FiberCutImpact returns the logical switch pairs severed by cutting
// fiber segment seg (joining ring switches seg and seg+1) of physical
// ring fiber: every channel whose assigned arc traverses that segment
// on that fiber dies (§3.5).
func (r *Ring) FiberCutImpact(fiber, seg int) ([][2]int, error) {
	m := r.Config.Switches
	if seg < 0 || seg >= m {
		return nil, fmt.Errorf("core: segment %d out of range [0,%d)", seg, m)
	}
	rings := r.Plan.Rings
	if rings == 0 {
		rings = 1
	}
	if fiber < 0 || fiber >= rings {
		return nil, fmt.Errorf("core: fiber %d out of range [0,%d)", fiber, rings)
	}
	var severed [][2]int
	for _, a := range r.Plan.Assignments {
		if a.Ring != fiber {
			continue
		}
		if a.Crosses(m, seg) {
			severed = append(severed, [2]int{a.S, a.T})
		}
	}
	return severed, nil
}

// FiberLinks resolves a fiber-segment cut to the logical mesh links it
// severs — FiberCutImpact mapped onto the ring's Graph. It is the
// one netsim fiber resolver; AttachFaults installs it.
func (r *Ring) FiberLinks(fiber, seg int) ([]topology.LinkID, error) {
	severed, err := r.FiberCutImpact(fiber, seg)
	if err != nil {
		return nil, err
	}
	sw := r.Graph.Switches()
	links := make([]topology.LinkID, 0, len(severed))
	for _, pair := range severed {
		l, ok := r.Graph.FindLink(sw[pair[0]], sw[pair[1]])
		if !ok {
			return nil, fmt.Errorf("core: no mesh link for pair %v", pair)
		}
		links = append(links, l.ID)
	}
	return links, nil
}

// AttachFaults returns the network's fault injector with this ring's
// fiber resolver installed, so scheduled netsim.FaultFiber events kill
// exactly the §3.5-severed wavelength links. The network must have been
// built on the ring's Graph.
func (r *Ring) AttachFaults(net *netsim.Network) (*netsim.FaultInjector, error) {
	if net.Graph() != r.Graph {
		return nil, fmt.Errorf("core: network was not built on this ring's graph")
	}
	fi := net.Faults()
	fi.SetFiberResolver(r.FiberLinks)
	return fi, nil
}
