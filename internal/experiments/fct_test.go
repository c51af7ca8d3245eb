package experiments

import (
	"context"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/tcp"
)

func TestFlowCompletionComparison(t *testing.T) {
	rows, err := fctGrid.Local(context.Background(), Params{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	t.Log("\n" + RenderFCT(rows))
	byKey := map[string]FCTRow{}
	for _, r := range rows {
		byKey[r.Topology+"/"+r.Mode.String()] = r
		if r.Flows < 140 {
			t.Errorf("%s/%v completed only %d flows", r.Topology, r.Mode, r.Flows)
		}
		if r.P99Us < r.MeanUs*0.999 {
			t.Errorf("%s/%v p99 %.1f below mean %.1f", r.Topology, r.Mode, r.P99Us, r.MeanUs)
		}
	}
	// Topology lever: the mesh beats the tree under the same protocol.
	if q, tr := byKey["quartz mesh/reno"], byKey["two-tier tree/reno"]; q.MeanUs >= tr.MeanUs {
		t.Errorf("mesh reno %.1fus not below tree reno %.1fus", q.MeanUs, tr.MeanUs)
	}
	// Protocol lever: DCTCP tames the tree's *tail* (the DCTCP paper's
	// headline metric) — short flows stop hiding behind a full buffer.
	if d, r := byKey["two-tier tree/dctcp"], byKey["two-tier tree/reno"]; d.P99Us >= r.P99Us {
		t.Errorf("tree dctcp p99 %.1fus not below tree reno p99 %.1fus", d.P99Us, r.P99Us)
	}
	// Topology beats protocol: the mesh under either protocol is far
	// below the tree under either — §2.1.4's point that protocol fixes
	// are "limited by the amount of path diversity in the underlying
	// network topology".
	for _, mode := range []string{"reno", "dctcp"} {
		q := byKey["quartz mesh/"+mode]
		for _, tmode := range []string{"reno", "dctcp"} {
			tr := byKey["two-tier tree/"+tmode]
			if q.P99Us*2 > tr.P99Us {
				t.Errorf("mesh/%s p99 %.1f not well below tree/%s p99 %.1f", mode, q.P99Us, tmode, tr.P99Us)
			}
		}
	}
	if out := RenderFCT(rows); !strings.Contains(out, "p99") {
		t.Error("render missing p99")
	}
}

var _ = tcp.Reno
