package netsim

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// traceFixture builds a recorder holding packet events plus synthetic
// fault rows whose reasons carry CSV-hostile characters.
func traceFixture() *TraceRecorder {
	tr := NewTraceRecorder(0)
	tr.add(TraceEvent{At: 10, Op: TraceEnqueue, Packet: 1, Flow: 7, Link: 0, From: 0, Hops: 0})
	tr.add(TraceEvent{At: 20, Op: TraceFault, Link: 3, From: -1,
		Reason: `fail: cut links 3, 4 at "spine", detect 10ms`})
	tr.add(TraceEvent{At: 30, Op: TraceDrop, Packet: 1, Flow: 7, Link: -1, From: -1, Hops: 1,
		Reason: "link 3 down"})
	tr.add(TraceEvent{At: 40, Op: TraceFault, Link: -1, From: -1,
		Reason: `reconverged, "2 links" down`})
	return tr
}

func TestTraceRecorderCSVRoundTrip(t *testing.T) {
	tr := traceFixture()
	var buf bytes.Buffer
	if err := tr.Table().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("trace CSV with quoted reasons does not parse: %v", err)
	}
	want := []string{"at_ps", "op", "packet", "flow", "link", "from", "hops", "reason"}
	if got := strings.Join(rows[0], ","); got != strings.Join(want, ",") {
		t.Fatalf("header = %q", got)
	}
	events := tr.Events()
	if len(rows)-1 != len(events) {
		t.Fatalf("CSV has %d data rows, want %d", len(rows)-1, len(events))
	}
	for i, e := range events {
		row := rows[i+1]
		if at, _ := strconv.ParseInt(row[0], 10, 64); at != int64(e.At) {
			t.Errorf("row %d at = %s, want %d", i, row[0], e.At)
		}
		if row[1] != e.Op.String() {
			t.Errorf("row %d op = %q, want %q", i, row[1], e.Op)
		}
		if link, _ := strconv.ParseInt(row[4], 10, 64); link != int64(e.Link) {
			t.Errorf("row %d link = %s, want %d", i, row[4], e.Link)
		}
		// The round-trip must preserve commas and quotes byte-for-byte.
		if row[7] != e.Reason {
			t.Errorf("row %d reason = %q, want %q", i, row[7], e.Reason)
		}
	}
}

func TestTraceRecorderJSONRoundTrip(t *testing.T) {
	tr := traceFixture()
	var buf bytes.Buffer
	if err := tr.Table().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	events := tr.Events()
	if len(decoded) != len(events) {
		t.Fatalf("JSON has %d events, want %d", len(decoded), len(events))
	}
	// Every row carries every CSV column, reason included.
	for i, e := range events {
		want := map[string]any{
			"at_ps": float64(e.At), "op": e.Op.String(), "packet": float64(e.Packet), "flow": float64(e.Flow),
			"link": float64(e.Link), "from": float64(e.From), "hops": float64(e.Hops), "reason": e.Reason,
		}
		if !reflect.DeepEqual(decoded[i], want) {
			t.Errorf("event %d round-trips as %v, want %v", i, decoded[i], want)
		}
	}
}

// busySampler runs a short congested workload under a sampler, so
// Samples() is non-empty.
func busySampler(t *testing.T) *QueueSampler {
	t.Helper()
	g, h0, h1 := twoHosts(t, sim.Gbps)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	s := NewQueueSampler(net, 10*sim.Microsecond)
	s.Start(sim.Millisecond)
	for i := 0; i < 50; i++ {
		net.Unicast(1, h0, h1, 1500, 0)
	}
	net.Engine().RunUntil(sim.Millisecond)
	if len(s.Samples()) == 0 {
		t.Fatal("fixture produced no samples")
	}
	return s
}

func TestQueueSamplerCSVRoundTrip(t *testing.T) {
	s := busySampler(t)
	var buf bytes.Buffer
	if err := s.Table().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("sampler CSV does not parse: %v", err)
	}
	if got := strings.Join(rows[0], ","); got != "at_ps,link,from,queued_bytes,utilization" {
		t.Fatalf("header = %q", got)
	}
	samples := s.Samples()
	if len(rows)-1 != len(samples) {
		t.Fatalf("CSV has %d data rows, want %d", len(rows)-1, len(samples))
	}
	for i, smp := range samples {
		row := rows[i+1]
		at, _ := strconv.ParseInt(row[0], 10, 64)
		qb, _ := strconv.Atoi(row[3])
		util, _ := strconv.ParseFloat(row[4], 64)
		if at != int64(smp.At) || qb != smp.QueuedBytes {
			t.Errorf("row %d = %v, want %+v", i, row, smp)
		}
		// Utilization is formatted with 6 decimal places.
		if diff := util - smp.Utilization; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("row %d utilization = %v, want %v", i, util, smp.Utilization)
		}
	}
}

func TestQueueSamplerJSONRoundTrip(t *testing.T) {
	s := busySampler(t)
	var buf bytes.Buffer
	if err := s.Table().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("sampler JSON does not parse: %v", err)
	}
	samples := s.Samples()
	if len(decoded) != len(samples) {
		t.Fatalf("JSON has %d samples, want %d", len(decoded), len(samples))
	}
	// Utilization at full precision, not the CSV's 6 places.
	for i, smp := range samples {
		want := map[string]any{
			"at_ps": float64(smp.At), "link": float64(smp.Port.Link), "from": float64(smp.Port.From),
			"queued_bytes": float64(smp.QueuedBytes), "utilization": smp.Utilization,
		}
		if !reflect.DeepEqual(decoded[i], want) {
			t.Errorf("sample %d round-trips as %v, want %v", i, decoded[i], want)
		}
	}
}

func TestQueueSamplerLastTick(t *testing.T) {
	// Fast host links feeding a slow inter-switch link: a queue builds
	// and persists at s0 -> s1, so the last tick's rows hold nonzero values.
	g := topology.New("pair")
	s0 := g.AddSwitch("s0", topology.TierToR, 0)
	s1 := g.AddSwitch("s1", topology.TierToR, 1)
	h0 := g.AddHost("h0", 0)
	h1 := g.AddHost("h1", 1)
	g.Connect(h0, s0, 10*sim.Gbps, topology.DefaultProp)
	g.Connect(s0, s1, sim.Gbps, topology.DefaultProp)
	g.Connect(s1, h1, 10*sim.Gbps, topology.DefaultProp)
	net, err := New(Config{Graph: g, Router: routing.NewECMP(g)})
	if err != nil {
		t.Fatal(err)
	}
	s := NewQueueSampler(net, 10*sim.Microsecond)
	s.Start(200 * sim.Microsecond)
	for i := 0; i < 50; i++ {
		net.Unicast(1, h0, h1, 1500, 0)
	}
	// Stop at 100µs: the backlog (50 × 1500 B at 1 Gbps ≈ 600µs of
	// serialization) is still draining, so the last tick sees it live.
	const last = 100 * sim.Microsecond
	net.Engine().RunUntil(last)

	var active, total, maxBytes int
	var sumUtil, maxUtil float64
	for _, smp := range s.Samples() {
		if smp.At != last {
			continue
		}
		active++
		total += smp.QueuedBytes
		maxBytes = max(maxBytes, smp.QueuedBytes)
		sumUtil += smp.Utilization
		maxUtil = max(maxUtil, smp.Utilization)
	}
	if total <= 0 {
		t.Errorf("queued bytes across ports = %d, want > 0 mid-backlog", total)
	}
	if maxBytes != total {
		t.Errorf("with one port queueing max (%d) should equal total (%d)", maxBytes, total)
	}
	if maxUtil <= 0.9 {
		t.Errorf("max utilization = %v, want ~1 on a saturated port", maxUtil)
	}
	// Idle ports have no row but count in the mean over all directed links.
	if m := sumUtil / float64(2*g.NumLinks()); m <= 0 || m >= maxUtil {
		t.Errorf("mean utilization = %v, want inside (0, %v) with mostly idle ports", m, maxUtil)
	}
	// The saturated s0 -> s1 port and the s1 -> h1 port it feeds.
	if active != 2 {
		t.Errorf("%d ports with a row at the last tick, want 2", active)
	}
	if n := s.Table().Len(); n != len(s.Samples()) {
		t.Errorf("table has %d rows, sampler %d", n, len(s.Samples()))
	}
}
