package analysis

import (
	"math/rand"
	"testing"

	"github.com/quartz-dcn/quartz/internal/sim"
)

func table9(t *testing.T) map[string]Row {
	t.Helper()
	rows, err := Table9(Table9Config{Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	m := map[string]Row{}
	for _, r := range rows {
		m[r.Network] = r
	}
	return m
}

func TestTable9TwoTier(t *testing.T) {
	r := table9(t)["2-Tier Tree"]
	// Paper row: 1.5us, 3 switch hops, 17 switches, wiring 16,
	// diversity 1.
	if r.Latency != 1500*sim.Nanosecond || r.SwitchHops != 3 {
		t.Errorf("latency %v / %d hops, want 1.5us / 3", r.Latency, r.SwitchHops)
	}
	if r.Switches != 17 {
		t.Errorf("switches = %d, want 17", r.Switches)
	}
	if r.Wiring != 16 {
		t.Errorf("wiring = %d, want 16", r.Wiring)
	}
	if r.Diversity != 1 {
		t.Errorf("diversity = %d, want 1", r.Diversity)
	}
}

func TestTable9FatTree(t *testing.T) {
	r := table9(t)["Fat-Tree"]
	// Paper row: 1.5us, 3 switch hops, 48 switches, wiring 1024,
	// diversity 32.
	if r.Latency != 1500*sim.Nanosecond || r.SwitchHops != 3 {
		t.Errorf("latency %v / %d hops, want 1.5us / 3", r.Latency, r.SwitchHops)
	}
	if r.Switches != 48 {
		t.Errorf("switches = %d, want 48", r.Switches)
	}
	if r.Wiring != 1024 {
		t.Errorf("wiring = %d, want 1024", r.Wiring)
	}
	if r.Diversity != 32 {
		t.Errorf("diversity = %d, want 32", r.Diversity)
	}
}

func TestTable9BCube(t *testing.T) {
	r := table9(t)["BCube"]
	// Paper row: 16us (2 switch hops & 1 server hop), wiring 960,
	// diversity 2.
	if r.SwitchHops != 2 || r.ServerHops != 1 {
		t.Errorf("hops = %d switch / %d server, want 2/1", r.SwitchHops, r.ServerHops)
	}
	if r.Latency != 16*sim.Microsecond {
		t.Errorf("latency = %v, want 16us", r.Latency)
	}
	if r.Diversity != 2 {
		t.Errorf("diversity = %d, want 2", r.Diversity)
	}
	// Our full BCube(32,1) build has 64 switches (the paper's table
	// lists 32 — it counts only one level); the wiring count lands near
	// the paper's 960.
	if r.Switches != 64 {
		t.Errorf("switches = %d, want 64 (2 levels x 32)", r.Switches)
	}
	if r.Wiring < 900 || r.Wiring > 1024 {
		t.Errorf("wiring = %d, want ~960", r.Wiring)
	}
}

func TestTable9Jellyfish(t *testing.T) {
	r := table9(t)["Jellyfish"]
	// Paper row: 1.5us, 3 switch hops, 24 switches, wiring 240,
	// diversity <= 32.
	if r.Switches != 24 {
		t.Errorf("switches = %d, want 24", r.Switches)
	}
	if r.Wiring < 235 || r.Wiring > 240 {
		t.Errorf("wiring = %d, want ~240", r.Wiring)
	}
	if r.SwitchHops < 2 || r.SwitchHops > 3 {
		t.Errorf("switch hops = %d, want 2-3", r.SwitchHops)
	}
	if r.Diversity < 2 || r.Diversity > 32 {
		t.Errorf("diversity = %d, want in (1, 32]", r.Diversity)
	}
}

func TestTable9Mesh(t *testing.T) {
	r := table9(t)["Mesh"]
	// Paper row: 1.0us, 2 switch hops, 33 switches, wiring 528 (33
	// with WDMs), diversity 32.
	if r.Latency != sim.Microsecond || r.SwitchHops != 2 {
		t.Errorf("latency %v / %d hops, want 1.0us / 2", r.Latency, r.SwitchHops)
	}
	if r.Switches != 33 {
		t.Errorf("switches = %d, want 33", r.Switches)
	}
	if r.Wiring != 528 {
		t.Errorf("wiring = %d, want 528", r.Wiring)
	}
	if r.WDMWiring != 33 {
		t.Errorf("WDM wiring = %d, want 33", r.WDMWiring)
	}
	if r.Diversity != 32 {
		t.Errorf("diversity = %d, want 32", r.Diversity)
	}
}

func TestMeshHasLowestLatencyAndHighestDiversity(t *testing.T) {
	rows := table9(t)
	mesh := rows["Mesh"]
	for name, r := range rows {
		if name == "Mesh" {
			continue
		}
		if r.Latency < mesh.Latency {
			t.Errorf("%s latency %v beats mesh %v", name, r.Latency, mesh.Latency)
		}
		if r.Diversity > mesh.Diversity {
			t.Errorf("%s diversity %d beats mesh %d", name, r.Diversity, mesh.Diversity)
		}
	}
}

func TestTable9RequiresRand(t *testing.T) {
	if _, err := Table9(Table9Config{}); err == nil {
		t.Error("nil rand accepted")
	}
}

func TestRowString(t *testing.T) {
	r := Row{Network: "Mesh", Latency: sim.Microsecond, SwitchHops: 2, Switches: 33, Wiring: 528, Diversity: 32}
	if s := r.String(); s == "" {
		t.Error("empty String()")
	}
}
