package traffic

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
)

// WriteTrace writes events as CSV with a header: ParseTrace's inverse.
// Six decimals of a microsecond are the picosecond, and the flow is
// written signed, as ParseTrace reads it.
func WriteTrace(w io.Writer, events []TraceEvent) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"at_us", "src", "dst", "size", "flow", "tag"}); err != nil {
		return err
	}
	for _, ev := range events {
		rec := []string{
			strconv.FormatFloat(ev.At.Micros(), 'f', 6, 64),
			strconv.Itoa(ev.Src),
			strconv.Itoa(ev.Dst),
			strconv.Itoa(ev.Size),
			strconv.FormatInt(int64(ev.Flow), 10),
			strconv.Itoa(ev.Tag),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func TestTraceRoundTrip(t *testing.T) {
	events := []TraceEvent{
		{At: 10 * sim.Microsecond, Src: 0, Dst: 3, Size: 400, Flow: 7, Tag: 2},
		{At: 5 * sim.Microsecond, Src: 1, Dst: 2, Size: 1500, Flow: 8, Tag: 1},
	}
	var buf strings.Builder
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("parsed %d events, want 2", len(back))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Errorf("event %d: %+v != %+v", i, back[i], events[i])
		}
	}
}

func TestParseTraceHeaderAndErrors(t *testing.T) {
	good := "at_us,src,dst,size\n1.5,0,1,400\n"
	events, err := ParseTrace(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].At != 1500*sim.Nanosecond || events[0].Tag != 1 {
		t.Errorf("parsed %+v", events)
	}
	// Times round to the nearest picosecond: 1.001 µs is 1 000 999.99…
	// ps in binary, not 1 000 999.
	for at, want := range map[string]sim.Time{
		"1.001":      1_001_000,
		"0.000001":   1,
		"0.0000005":  1,
		"0.0000004":  0,
		"-0":         0,
		"999.999999": 999_999_999,
		"1e9":        1000 * sim.Second,
	} {
		events, err := ParseTrace(strings.NewReader(at + ",0,1,400\n"))
		if err != nil || len(events) != 1 || events[0].At != want {
			t.Errorf("time %s: parsed %+v, %v; want At %d", at, events, err, want)
		}
	}
	for name, bad := range map[string]string{
		"short row":      "1.0,0,1\n",
		"bad time":       "abc,0,1,400\n2.0,x,1,400\n",
		"bad field":      "1.0,zero,1,400\n",
		"NaN time":       "NaN,0,1,400\n",
		"infinite time":  "+Inf,0,1,400\n",
		"huge time":      "1e300,0,1,400\n",
		"negative time":  "1.0,0,1,400\n-0.0000004,0,1,400\n",
		"past the limit": "1000000000.000001,0,1,400\n",
	} {
		if _, err := ParseTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestReplayDeliversEveryEvent(t *testing.T) {
	net, h, _ := meshNet(t, 4, 2)
	pairs := [][2]int{{0, 5}, {2, 7}}
	var events []TraceEvent
	for i := 0; i < 1000; i++ {
		pr := pairs[i%2]
		events = append(events, TraceEvent{
			At: sim.Time(i) * 5 * sim.Microsecond, Src: pr[0], Dst: pr[1], Size: 400,
			Flow: routing.FlowID(i%2 + 1), Tag: 1,
		})
	}
	n, err := Replay(net, events)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(events) {
		t.Errorf("scheduled %d, want %d", n, len(events))
	}
	net.Engine().Run()
	if got := h.Latency(1).N(); got != int64(len(events)) {
		t.Errorf("delivered %d, want %d", got, len(events))
	}
}

func TestReplayValidation(t *testing.T) {
	net, _, _ := meshNet(t, 3, 1)
	cases := map[string][]TraceEvent{
		"bad src":  {{At: 0, Src: 99, Dst: 0, Size: 400}},
		"bad dst":  {{At: 0, Src: 0, Dst: -1, Size: 400}},
		"bad size": {{At: 0, Src: 0, Dst: 1, Size: 0}},
		"bad time": {{At: -5, Src: 0, Dst: 1, Size: 400}},
	}
	for name, evs := range cases {
		if _, err := Replay(net, evs); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestReplayArbitraryTags: a trace file chooses its own tags, so the
// harness must take any int — negative ones and ones no table could
// index included — and keep each tag's statistics and handler apart.
// (A slice-indexed harness was measured and not kept, DESIGN.md §8;
// whoever tries again starts from this test.)
func TestReplayArbitraryTags(t *testing.T) {
	tags := []int{-1, 0, 4095, 4096, 1 << 40}
	var csv strings.Builder
	csv.WriteString("at_us,src,dst,size,flow,tag\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&csv, "%d.5,%d,%d,%d,%d,%d\n", i, i%8, (i+3)%8, 200+i, i+1, tags[i%len(tags)])
	}
	events, err := ParseTrace(strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	net, h, _ := meshNet(t, 4, 2)
	handled := map[int]int{}
	for _, tag := range tags {
		h.Handle(tag, func(d netsim.Delivery) { handled[d.Packet.Tag]++ })
	}
	if _, err := Replay(net, events); err != nil {
		t.Fatal(err)
	}
	net.Engine().Run()
	for _, tag := range tags {
		if n := h.Latency(tag).N(); n != 40 || handled[tag] != 40 {
			t.Errorf("tag %d: %d deliveries recorded, %d handled; want 40 and 40", tag, n, handled[tag])
		}
	}
	for _, tag := range []int{7, -9, 1 << 41} {
		if n := h.Latency(tag).N(); n != 0 {
			t.Errorf("tag %d never delivered but has %d samples", tag, n)
		}
	}
}
