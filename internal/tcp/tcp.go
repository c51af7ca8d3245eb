// Package tcp implements a window-based reliable transport on the
// packet simulator: TCP Reno-style congestion control and the DCTCP
// variant the paper discusses (§2.1.4). It exists for two reasons:
//
//   - Realistic cross-traffic: the §6 prototype's bursty flows were
//     nuttcp/TCP, whose self-clocking holds standing queues at shared
//     links — the effect behind the tree's 70% RPC slowdown in
//     Figure 14. The open-loop generators in internal/traffic cannot
//     hold a queue; Conn can.
//   - Flow-completion-time experiments: short-flow latency under
//     congestion-control regimes, the subject of the related work the
//     paper positions itself against (DCTCP, D3, PDQ, DeTail).
//
// The model is deliberately compact: one maximum-segment-size packet
// per sequence number, cumulative ACKs, fast retransmit on three
// duplicate ACKs, RTO with exponential backoff, slow start and AIMD
// congestion avoidance, and (in DCTCP mode) ECN-fraction-proportional
// window reduction. There is no SACK, no delayed ACK, no Nagle.
package tcp

import (
	"fmt"

	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
	"github.com/quartz-dcn/quartz/internal/traffic"
)

// Mode selects the congestion controller.
type Mode int

// Congestion-control modes.
const (
	// Reno: slow start, AIMD, fast retransmit/recovery.
	Reno Mode = iota
	// DCTCP: Reno's machinery with ECN-fraction-proportional window
	// decrease (Alizadeh et al., the paper's [19]).
	DCTCP
)

func (m Mode) String() string {
	if m == DCTCP {
		return "dctcp"
	}
	return "reno"
}

// Config describes one connection.
type Config struct {
	Net     *netsim.Network
	Harness *traffic.Harness
	Src     topology.NodeID
	Dst     topology.NodeID
	// Flow is the ECMP flow identity (per-connection).
	Flow routing.FlowID
	// DataTag and AckTag must be unique per connection in the harness.
	DataTag, AckTag int
	// Bytes is the flow size; 0 means unbounded (runs until the
	// simulation ends — bulk cross-traffic).
	Bytes int64
	// MSS is the segment payload size on the wire (1460+40=1500 when 0).
	MSS int
	// Mode selects Reno or DCTCP.
	Mode Mode
	// InitRTO seeds the retransmission timer before an RTT estimate
	// exists (1 ms when 0; datacenter scale).
	InitRTO sim.Time
	// OnComplete fires when the last byte is acknowledged (finite
	// flows only).
	OnComplete func(fct sim.Time)
}

// Conn is a simulated TCP sender and its receiver.
//
// The receiver side is implicit: every delivered data segment
// immediately generates a cumulative ACK carrying the highest
// in-order sequence received and the ECN echo of the segment that
// triggered it.
type Conn struct {
	cfg Config
	eng *sim.Engine

	// Sender state. Sequence numbers count segments, not bytes.
	nextSeq   uint64 // next new segment to send
	sendHi    uint64 // highest segment ever sent + 1
	ackedTo   uint64 // cumulative: all segments < ackedTo delivered
	totalSegs uint64 // 0 if unbounded

	cwnd           float64 // in segments
	ssthresh       float64
	dupAcks        int
	inFastRecovery bool

	// DCTCP state.
	alpha        float64
	ackedWindow  uint64 // ACKs since last alpha update
	markedWindow uint64
	alphaSeq     uint64 // update alpha when ackedTo passes this

	// RTT estimation (SRTT/RTTVAR, RFC 6298 style).
	srtt, rttvar sim.Time
	rto          sim.Time
	rtoGen       uint64 // invalidates stale timers
	sendTimes    map[uint64]sim.Time

	// Receiver state.
	rcvNext uint64 // next in-order segment expected

	started   sim.Time
	done      bool
	retrans   uint64
	delivered uint64
}

// New creates a connection and registers its handlers; call Start to
// begin transmitting.
func New(cfg Config) (*Conn, error) {
	if cfg.Net == nil || cfg.Harness == nil {
		return nil, fmt.Errorf("tcp: nil network or harness")
	}
	if cfg.Src == cfg.Dst {
		return nil, fmt.Errorf("tcp: src == dst")
	}
	if cfg.MSS == 0 {
		cfg.MSS = 1500
	}
	if cfg.MSS < 64 {
		return nil, fmt.Errorf("tcp: MSS %d too small", cfg.MSS)
	}
	if cfg.InitRTO == 0 {
		cfg.InitRTO = sim.Millisecond
	}
	c := &Conn{
		cfg:       cfg,
		eng:       cfg.Net.Engine(),
		cwnd:      2,
		ssthresh:  64,
		alpha:     0,
		rto:       cfg.InitRTO,
		sendTimes: make(map[uint64]sim.Time),
	}
	if cfg.Bytes > 0 {
		c.totalSegs = uint64((cfg.Bytes + int64(cfg.MSS) - 1) / int64(cfg.MSS))
	}
	cfg.Harness.Handle(cfg.DataTag, c.onData)
	cfg.Harness.Handle(cfg.AckTag, c.onAck)
	return c, nil
}

// Start begins transmission at the current simulation time.
func (c *Conn) Start() {
	c.started = c.eng.Now()
	c.alphaSeq = c.window()
	c.pump()
	c.armRTO()
}

// window returns cwnd in whole segments, at least 1.
func (c *Conn) window() uint64 {
	w := uint64(c.cwnd)
	if w < 1 {
		w = 1
	}
	return w
}

// pump transmits new segments while the window allows.
func (c *Conn) pump() {
	if c.done {
		return
	}
	for c.nextSeq-c.ackedTo < c.window() {
		if c.totalSegs > 0 && c.nextSeq >= c.totalSegs {
			return
		}
		c.transmit(c.nextSeq)
		c.nextSeq++
		if c.nextSeq > c.sendHi {
			c.sendHi = c.nextSeq
		}
	}
}

// transmit sends one data segment.
func (c *Conn) transmit(seq uint64) {
	c.sendTimes[seq] = c.eng.Now()
	c.cfg.Net.Send(netsim.Packet{
		Flow: c.cfg.Flow, Src: c.cfg.Src, Dst: c.cfg.Dst,
		Size: c.cfg.MSS, Tag: c.cfg.DataTag,
		UserData: seq, Waypoint: netsim.NoWaypoint,
	})
}

// ackSize is the ACK segment size on the wire.
const ackSize = 64

// onData runs at the receiver for every delivered data segment: advance
// the in-order point and return a cumulative ACK echoing the ECN mark.
func (c *Conn) onData(d netsim.Delivery) {
	seq := d.Packet.UserData
	if seq == c.rcvNext {
		c.rcvNext++
		// A real receiver buffers out-of-order segments; with a single
		// path and FIFO queues, reordering only happens after loss, and
		// the cumulative ACK scheme retransmits from the hole anyway.
	}
	ack := netsim.Packet{
		Flow: c.cfg.Flow + 1, Src: c.cfg.Dst, Dst: c.cfg.Src,
		Size: ackSize, Tag: c.cfg.AckTag,
		UserData: c.rcvNext, Waypoint: netsim.NoWaypoint,
	}
	if d.Packet.Marked {
		// Echo congestion experienced (simplified: per-ACK echo).
		ack.Marked = true
	}
	c.cfg.Net.Send(ack)
}

// onAck runs at the sender for every delivered ACK.
func (c *Conn) onAck(d netsim.Delivery) {
	if c.done {
		return
	}
	ackTo := d.Packet.UserData

	// DCTCP bookkeeping: count marks per window of ACKs.
	if c.cfg.Mode == DCTCP {
		c.ackedWindow++
		if d.Packet.Marked {
			c.markedWindow++
		}
		if ackTo >= c.alphaSeq {
			frac := 0.0
			if c.ackedWindow > 0 {
				frac = float64(c.markedWindow) / float64(c.ackedWindow)
			}
			const g = 1.0 / 16
			c.alpha = (1-g)*c.alpha + g*frac
			c.ackedWindow, c.markedWindow = 0, 0
			c.alphaSeq = ackTo + c.window()
			if frac > 0 {
				// DCTCP decrease: cwnd *= 1 - alpha/2, once per window.
				c.cwnd *= 1 - c.alpha/2
				if c.cwnd < 1 {
					c.cwnd = 1
				}
			}
		}
	}

	switch {
	case ackTo > c.ackedTo:
		// New data acknowledged.
		newly := ackTo - c.ackedTo
		if ts, ok := c.sendTimes[c.ackedTo]; ok {
			c.updateRTT(c.eng.Now() - ts)
		}
		for s := c.ackedTo; s < ackTo; s++ {
			delete(c.sendTimes, s)
		}
		c.ackedTo = ackTo
		c.delivered += newly
		c.dupAcks = 0
		if c.inFastRecovery && ackTo >= c.sendHi {
			c.inFastRecovery = false
			c.cwnd = c.ssthresh
		}
		if !c.inFastRecovery {
			if c.cwnd < c.ssthresh {
				c.cwnd += float64(newly) // slow start
			} else {
				c.cwnd += float64(newly) / c.cwnd // congestion avoidance
			}
		}
		c.rtoGen++ // fresh progress: re-arm the timer
		c.armRTO()
		if c.totalSegs > 0 && c.ackedTo >= c.totalSegs {
			c.done = true
			c.rtoGen++
			if c.cfg.OnComplete != nil {
				c.cfg.OnComplete(c.eng.Now() - c.started)
			}
			return
		}
	case ackTo == c.ackedTo:
		c.dupAcks++
		if c.dupAcks == 3 && !c.inFastRecovery {
			// Fast retransmit: resend the hole, halve the window.
			c.ssthresh = c.cwnd / 2
			if c.ssthresh < 2 {
				c.ssthresh = 2
			}
			c.cwnd = c.ssthresh
			c.inFastRecovery = true
			c.retrans++
			c.transmit(c.ackedTo)
		}
	}
	c.pump()
}

// updateRTT folds one sample into SRTT/RTTVAR and recomputes the RTO.
func (c *Conn) updateRTT(sample sim.Time) {
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		d := c.srtt - sample
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < 200*sim.Microsecond {
		c.rto = 200 * sim.Microsecond // datacenter-scale minimum RTO
	}
}

// armRTO schedules the retransmission timer for the current outstanding
// data; stale timers are invalidated by rtoGen.
func (c *Conn) armRTO() {
	if c.done || c.ackedTo == c.nextSeq {
		return
	}
	gen := c.rtoGen
	rto := c.rto
	c.eng.After(rto, func() {
		if c.done || gen != c.rtoGen || c.ackedTo == c.nextSeq {
			return
		}
		// Timeout: collapse to slow start and resend the hole.
		c.ssthresh = c.cwnd / 2
		if c.ssthresh < 2 {
			c.ssthresh = 2
		}
		c.cwnd = 1
		c.inFastRecovery = false
		c.dupAcks = 0
		c.retrans++
		c.rto *= 2 // exponential backoff until the next RTT sample
		if c.rto > 100*sim.Millisecond {
			c.rto = 100 * sim.Millisecond
		}
		c.transmit(c.ackedTo)
		c.armRTO()
	})
}
