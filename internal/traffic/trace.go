package traffic

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
)

// TraceEvent is one packet of a recorded workload: an injection time
// and endpoints given as host indices into Graph.Hosts().
type TraceEvent struct {
	// At is the injection time.
	At sim.Time
	// Src and Dst index into the topology's host list.
	Src, Dst int
	// Size is the packet size in bytes.
	Size int
	// Flow groups packets for ECMP; 0 lets the replayer derive one from
	// the (src, dst) pair.
	Flow routing.FlowID
	// Tag groups deliveries in the harness (default 1).
	Tag int
}

// maxTraceTime is the latest time a trace may give. Up to it a float64
// count of microseconds resolves every picosecond (that holds below
// 2^50 ps ≈ 1126 s), and it is a hundred times the longest run a
// scenario allows.
const maxTraceTime = 1000 * sim.Second

// ParseTrace reads a CSV trace: `at_us,src,dst,size[,flow[,tag]]` with
// an optional header row. Times are rounded to the nearest picosecond
// and must lie in [0, maxTraceTime]. Events need not be sorted; the
// replayer sorts them.
func ParseTrace(r io.Reader) ([]TraceEvent, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	var events []TraceEvent
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: %w", line+1, err)
		}
		line++
		if line == 1 && len(rec) > 0 {
			if _, err := strconv.ParseFloat(rec[0], 64); err != nil {
				continue // header row
			}
		}
		if len(rec) < 4 {
			return nil, fmt.Errorf("traffic: trace line %d: need at least 4 fields, got %d", line, len(rec))
		}
		atUs, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: bad time %q", line, rec[0])
		}
		if !(atUs >= 0 && atUs <= maxTraceTime.Micros()) {
			return nil, fmt.Errorf("traffic: trace line %d: time %q µs outside [0, %g]", line, rec[0], maxTraceTime.Micros())
		}
		ints := make([]int, 0, 5)
		for _, f := range rec[1:] {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("traffic: trace line %d: bad field %q", line, f)
			}
			ints = append(ints, v)
		}
		ev := TraceEvent{
			At:   sim.Time(math.Round(atUs * float64(sim.Microsecond))),
			Src:  ints[0],
			Dst:  ints[1],
			Size: ints[2],
			Tag:  1,
		}
		if len(ints) > 3 {
			ev.Flow = routing.FlowID(ints[3])
		}
		if len(ints) > 4 {
			ev.Tag = ints[4]
		}
		events = append(events, ev)
	}
	return events, nil
}

// Replay schedules every trace event onto the network. Events are
// sorted by time; host indices are resolved against the network's
// topology. It returns the number of packets scheduled.
func Replay(net *netsim.Network, events []TraceEvent) (int, error) {
	hosts := net.Graph().Hosts()
	sorted := make([]TraceEvent, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	now := net.Engine().Now()
	for i, ev := range sorted {
		if ev.Src < 0 || ev.Src >= len(hosts) || ev.Dst < 0 || ev.Dst >= len(hosts) {
			return 0, fmt.Errorf("traffic: trace event %d: host index out of range (%d hosts)", i, len(hosts))
		}
		if ev.Size <= 0 {
			return 0, fmt.Errorf("traffic: trace event %d: size %d", i, ev.Size)
		}
		if ev.At < 0 {
			return 0, fmt.Errorf("traffic: trace event %d: negative time", i)
		}
		p := netsim.Packet{
			Flow: ev.Flow,
			Src:  hosts[ev.Src], Dst: hosts[ev.Dst],
			Size: ev.Size, Tag: ev.Tag, Waypoint: netsim.NoWaypoint,
		}
		if p.Flow == 0 {
			p.Flow = routing.FlowID(ev.Src)<<20 | routing.FlowID(ev.Dst)
		}
		at := now + ev.At
		net.Engine().Schedule(at, func() { net.Send(p) })
	}
	return len(sorted), nil
}
