// Package optics models the optical power budget of a Quartz ring
// (§3.3 of the paper): DWDM transceivers emit at a known power, every
// mux/demux traversal costs insertion loss, and pump-laser amplifiers
// (EDFAs) are inserted where the accumulated loss would otherwise drop
// a channel below the receiver sensitivity. Attenuators protect
// receivers on short paths from overload.
//
// All power levels are in dBm and gains/losses in dB, carried as
// float64 — the quantities are logarithmic and never enter hot loops.
package optics

import (
	"fmt"
	"math"
)

// PartSpec describes the optical parts of a ring deployment. The zero
// value is not usable; start from DefaultParts (the paper's cited
// components).
type PartSpec struct {
	// TxPowerDBm is the transceiver launch power.
	TxPowerDBm float64
	// RxSensitivityDBm is the minimum receive power.
	RxSensitivityDBm float64
	// MuxInsertionLossDB is the loss of one mux or demux traversal.
	MuxInsertionLossDB float64
	// FiberLossDBPerKm is the fiber attenuation.
	FiberLossDBPerKm float64
	// AmpGainDB is the gain of one amplifier (EDFA).
	AmpGainDB float64
}

// DefaultParts matches the worked example of §3.3: 10 Gb/s DWDM
// transceivers with 4 dBm launch power and -15 dBm sensitivity [7], and
// 80-channel DWDMs with 6 dB insertion loss [8]. The fiber loss is a
// typical datasheet value.
var DefaultParts = PartSpec{
	TxPowerDBm:         4,
	RxSensitivityDBm:   -15,
	MuxInsertionLossDB: 6,
	FiberLossDBPerKm:   0.25,
	AmpGainDB:          25,
}

// MaxMuxesWithoutAmp returns how many mux/demux traversals a channel
// survives unamplified: floor((tx - sensitivity) / insertionLoss). For
// the default parts this is the paper's (4-(-15))/6 = 3.17 -> 3.
func (p PartSpec) MaxMuxesWithoutAmp() int {
	if p.MuxInsertionLossDB <= 0 {
		return math.MaxInt32
	}
	return int((p.TxPowerDBm - p.RxSensitivityDBm) / p.MuxInsertionLossDB)
}

// RingBudget is the amplifier/attenuator plan for one Quartz ring.
type RingBudget struct {
	// RingSize is the number of switches.
	RingSize int
	// AmpAfterHops is the spacing of amplifiers: one amplifier after
	// every AmpAfterHops optical hops (0 means no amplifiers needed).
	AmpAfterHops int
	// Amplifiers is the total number of amplifiers on the ring.
	Amplifiers int
	// Attenuators is the number of attenuators needed to protect
	// receivers adjacent to amplifiers from overload.
	Attenuators int
}

// MuxTraversals returns how many mux/demux insertion losses a channel
// spanning the given number of ring hops pays: the add mux at its
// source, one express traversal per intermediate OADM, and the drop
// demux at its destination — hops+1 in total. (The paper's "each
// optical hop requires traversing two DWDMs" is this count for a
// single hop.)
func MuxTraversals(hops int) int {
	if hops < 1 {
		return 0
	}
	return hops + 1
}

// PlanRing computes the amplifier plan of §3.3 for a ring of the given
// size. A channel spanning h hops pays MuxTraversals(h) = h+1 insertion
// losses, and the power budget allows MaxMuxesWithoutAmp traversals
// (3 for the default parts: (4-(-15))/6 = 3.17). Placing an amplifier
// inside every s-th switch bay keeps unamplified runs at s+1 muxes, so
// the widest feasible spacing is maxMux-1 = 2 switches: the paper's
// "one amplifier for every two switches", i.e. 12 amplifiers on a
// 24-node ring (a 3% cost increase, §3.3).
func PlanRing(size int, parts PartSpec) (RingBudget, error) {
	if size < 1 {
		return RingBudget{}, fmt.Errorf("optics: ring size %d < 1", size)
	}
	if parts.TxPowerDBm <= parts.RxSensitivityDBm {
		return RingBudget{}, fmt.Errorf("optics: tx power %.1f dBm at or below sensitivity %.1f dBm",
			parts.TxPowerDBm, parts.RxSensitivityDBm)
	}
	b := RingBudget{RingSize: size}
	maxMux := parts.MaxMuxesWithoutAmp()
	if maxMux < 2 {
		return RingBudget{}, fmt.Errorf("optics: add+drop muxes (%.1f dB) exceed the %.1f dB budget",
			2*parts.MuxInsertionLossDB, parts.TxPowerDBm-parts.RxSensitivityDBm)
	}
	// Channels take shortest arcs, so the longest path is floor(M/2)
	// hops; if its mux count fits the budget no amplification is
	// needed.
	if MuxTraversals(size/2) <= maxMux {
		return b, nil
	}
	spacing := maxMux - 1
	if spacing < 1 {
		spacing = 1
	}
	b.AmpAfterHops = spacing
	b.Amplifiers = (size + spacing - 1) / spacing
	// Receivers right after an amplifier see boosted power and need an
	// attenuator (§3.3: "we also need to add optical attenuators").
	b.Attenuators = b.Amplifiers
	return b, nil
}

// WalkChannel traces a channel's power level across the given number of
// ring hops with an amplifier inside every ampEvery-th switch bay
// (0 = no amplifiers). Amplifiers restore the level to at most the
// transceiver launch power (saturated EDFA). It returns the minimum
// level seen en route and the arrival level at the drop demux output,
// before any terminal attenuator.
func WalkChannel(parts PartSpec, hops, ampEvery int, hopKm float64) (minDBm, arrivalDBm float64) {
	power := parts.TxPowerDBm - parts.MuxInsertionLossDB // add mux
	min := power
	for h := 1; h <= hops; h++ {
		power -= hopKm * parts.FiberLossDBPerKm
		if h == hops {
			power -= parts.MuxInsertionLossDB // drop demux
			if power < min {
				min = power
			}
			break
		}
		power -= parts.MuxInsertionLossDB // express traversal
		if power < min {
			min = power
		}
		if ampEvery > 0 && h%ampEvery == 0 {
			power += parts.AmpGainDB
			if power > parts.TxPowerDBm {
				power = parts.TxPowerDBm
			}
		}
	}
	return min, power
}

// ValidateRing checks that the budget plan keeps every channel alive:
// walking the longest shortest-arc path (floor(M/2) hops) with the
// planned amplifier spacing must never dip below the receiver
// sensitivity. hopKm is the fiber length of one hop.
func ValidateRing(b RingBudget, parts PartSpec, hopKm float64) error {
	worst := b.RingSize / 2
	if worst < 1 {
		return nil
	}
	min, _ := WalkChannel(parts, worst, b.AmpAfterHops, hopKm)
	if min < parts.RxSensitivityDBm {
		return fmt.Errorf("optics: worst path (%d hops, amp every %d) dips to %.1f dBm, below sensitivity %.1f dBm",
			worst, b.AmpAfterHops, min, parts.RxSensitivityDBm)
	}
	return nil
}
