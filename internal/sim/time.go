// Package sim provides a deterministic discrete-event simulation engine —
// the core of the packet-level simulator the Quartz paper built for its
// §7 evaluation ("we implemented a packet level simulator").
//
// The engine drives every packet-level experiment in this repository. It
// maintains a virtual clock with picosecond resolution and a 4-ary-heap
// event queue with deterministic FIFO tie-breaking, so a simulation run is
// a pure function of its inputs and seed. StopOn is the one way to stop
// a run early, and Telemetry reports run throughput and the queue's
// high-water mark.
package sim

import "fmt"

// Time is a point in virtual time, measured in integer picoseconds.
//
// Picoseconds are fine enough that the serialization time of any frame at
// any line rate used in the paper (1, 10, 40, 100 Gb/s) is an exact
// integer: one bit at 100 Gb/s is exactly 10 ps. int64 picoseconds cover
// about 106 days of virtual time, far beyond any experiment here.
type Time int64

// Duration constants, following the naming of the time package.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the "end of virtual time" sentinel: Run is RunUntil(MaxTime),
// RunUntil treats an end of MaxTime as "never clamp the clock", and queue
// scans use it as the identity for min-reductions. The value (2^62 − 1
// picoseconds, about 53 days) leaves headroom below the int64 limit.
const MaxTime = Time(1)<<62 - 1

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an appropriate SI unit.
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond || t <= -Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Rate is a data rate in bits per second.
type Rate int64

// Common line rates.
const (
	Kbps Rate = 1e3
	Mbps Rate = 1e6
	Gbps Rate = 1e9
)

// String formats the rate with an appropriate SI unit.
func (r Rate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return fmt.Sprintf("%dGbps", r/Gbps)
	case r >= Mbps && r%Mbps == 0:
		return fmt.Sprintf("%dMbps", r/Mbps)
	case r >= Kbps && r%Kbps == 0:
		return fmt.Sprintf("%dKbps", r/Kbps)
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// Serialize returns the time to transmit size bytes at rate r.
// It panics if r is not positive.
func (r Rate) Serialize(sizeBytes int) Time {
	if r <= 0 {
		panic("sim: Serialize on non-positive rate")
	}
	bits := int64(sizeBytes) * 8
	// bits * ps-per-second / bits-per-second. bits is at most a few
	// hundred thousand for any real frame, so bits*1e12 fits in int64.
	return Time(bits * int64(Second) / int64(r))
}
