package optics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMaxMuxesWithoutAmp(t *testing.T) {
	// The paper's worked example: (4 - (-15)) / 6 = 3.17 -> 3.
	if got := DefaultParts.MaxMuxesWithoutAmp(); got != 3 {
		t.Errorf("MaxMuxesWithoutAmp = %d, want 3", got)
	}
	lossless := DefaultParts
	lossless.MuxInsertionLossDB = 0
	if got := lossless.MaxMuxesWithoutAmp(); got != math.MaxInt32 {
		t.Errorf("zero-loss mux budget = %d, want unbounded", got)
	}
}

func TestPlanRing24(t *testing.T) {
	// §3.3: a 24-node ring needs one amplifier for every two switches,
	// i.e. 12 amplifiers.
	b, err := PlanRing(24, DefaultParts)
	if err != nil {
		t.Fatal(err)
	}
	if b.AmpAfterHops != 2 {
		t.Errorf("AmpAfterHops = %d, want 2", b.AmpAfterHops)
	}
	if b.Amplifiers != 12 {
		t.Errorf("Amplifiers = %d, want 12", b.Amplifiers)
	}
	if b.Attenuators != 12 {
		t.Errorf("Attenuators = %d, want 12", b.Attenuators)
	}
	if err := ValidateRing(b, DefaultParts, 0.05); err != nil {
		t.Errorf("24-node plan invalid: %v", err)
	}
}

func TestPlanRingTinyNeedsNoAmps(t *testing.T) {
	// A 2-node ring has a single 2-mux hop: within the 3-mux budget.
	b, err := PlanRing(2, DefaultParts)
	if err != nil {
		t.Fatal(err)
	}
	if b.Amplifiers != 0 || b.AmpAfterHops != 0 {
		t.Errorf("2-node ring plan = %+v, want no amplifiers", b)
	}
	if err := ValidateRing(b, DefaultParts, 0.05); err != nil {
		t.Errorf("2-node plan invalid: %v", err)
	}
}

func TestPlanRingErrors(t *testing.T) {
	if _, err := PlanRing(0, DefaultParts); err == nil {
		t.Error("size 0 accepted")
	}
	weak := DefaultParts
	weak.TxPowerDBm = -20
	if _, err := PlanRing(8, weak); err == nil {
		t.Error("tx below sensitivity accepted")
	}
	lossy := DefaultParts
	lossy.MuxInsertionLossDB = 30
	if _, err := PlanRing(8, lossy); err == nil {
		t.Error("mux loss exceeding whole budget accepted")
	}
}

func TestValidateRingRejectsBadPlans(t *testing.T) {
	// A no-amplifier plan for a large ring must fail.
	bad := RingBudget{RingSize: 24}
	if err := ValidateRing(bad, DefaultParts, 0.05); err == nil {
		t.Error("unamplified 24-node ring validated")
	}
	// Spacing too wide: runs of 2*4-1 = 7 muxes = 42 dB dips below.
	wide := RingBudget{RingSize: 24, AmpAfterHops: 4, Amplifiers: 6}
	if err := ValidateRing(wide, DefaultParts, 0.05); err == nil {
		t.Error("4-hop spacing validated")
	}
	// Weak amplifiers: per-period loss exceeds gain.
	weakAmp := DefaultParts
	weakAmp.AmpGainDB = 10
	plan := RingBudget{RingSize: 24, AmpAfterHops: 2, Amplifiers: 12}
	if err := ValidateRing(plan, weakAmp, 0.05); err == nil {
		t.Error("weak amplifier plan validated")
	}
	// Trivial ring always valid.
	if err := ValidateRing(RingBudget{RingSize: 1}, DefaultParts, 0.05); err != nil {
		t.Errorf("1-node ring: %v", err)
	}
}

// TestPlanRingProperty checks that for any ring size, the produced plan
// validates with the default parts.
func TestPlanRingProperty(t *testing.T) {
	f := func(size uint8) bool {
		n := int(size%40) + 1
		b, err := PlanRing(n, DefaultParts)
		if err != nil {
			return false
		}
		return ValidateRing(b, DefaultParts, 0.05) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAmplifierCountScalesLinearly checks the §3.3 claim shape: the
// amplifier count is about size/2 for the default parts.
func TestAmplifierCountScalesLinearly(t *testing.T) {
	for _, size := range []int{8, 16, 24, 33} {
		b, err := PlanRing(size, DefaultParts)
		if err != nil {
			t.Fatal(err)
		}
		want := (size + 1) / 2
		if b.Amplifiers != want {
			t.Errorf("size %d: %d amplifiers, want %d", size, b.Amplifiers, want)
		}
	}
}

func TestMuxTraversals(t *testing.T) {
	// One hop traverses two DWDMs (§3.3); h hops traverse h+1.
	cases := map[int]int{0: 0, 1: 2, 2: 3, 16: 17}
	for hops, want := range cases {
		if got := MuxTraversals(hops); got != want {
			t.Errorf("MuxTraversals(%d) = %d, want %d", hops, got, want)
		}
	}
}

func TestWalkChannelUnamplified(t *testing.T) {
	// Two hops, no amps: 3 muxes = 18 dB -> arrive at -14 dBm, feasible.
	min, arrival := WalkChannel(DefaultParts, 2, 0, 0)
	if arrival != -14 {
		t.Errorf("arrival = %v, want -14", arrival)
	}
	if min != -14 {
		t.Errorf("min = %v, want -14 (monotone decay)", min)
	}
	// Three hops, no amps: 4 muxes = -20 dBm, below sensitivity.
	min, _ = WalkChannel(DefaultParts, 3, 0, 0)
	if min >= DefaultParts.RxSensitivityDBm {
		t.Errorf("3 unamplified hops min = %v, want below -15", min)
	}
}

func TestWalkChannelAmplified(t *testing.T) {
	// The longest path of a 33-ring (16 hops) with amps every 2 switches
	// never dips below sensitivity and arrives hot (attenuator needed).
	min, arrival := WalkChannel(DefaultParts, 16, 2, 0.05)
	if min < DefaultParts.RxSensitivityDBm {
		t.Errorf("min = %v, want >= -15", min)
	}
	if arrival <= DefaultParts.RxSensitivityDBm {
		t.Errorf("arrival = %v, want comfortably above sensitivity", arrival)
	}
	// Amplifiers saturate at launch power: the level never exceeds Tx.
	if arrival > DefaultParts.TxPowerDBm {
		t.Errorf("arrival %v exceeds launch power", arrival)
	}
}

func TestPlanRingSmallRingsNeedNoAmps(t *testing.T) {
	// Up to 5 switches the longest shortest arc is 2 hops = 3 muxes:
	// within the budget.
	for size := 1; size <= 5; size++ {
		b, err := PlanRing(size, DefaultParts)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if b.Amplifiers != 0 {
			t.Errorf("size %d: %d amplifiers, want 0", size, b.Amplifiers)
		}
	}
	// Size 6: 3-hop arcs pay 4 muxes and need amplification.
	b, err := PlanRing(6, DefaultParts)
	if err != nil {
		t.Fatal(err)
	}
	if b.Amplifiers == 0 {
		t.Error("size 6 should need amplifiers (3-hop arcs pay 4 muxes)")
	}
}
