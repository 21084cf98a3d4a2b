// Package vrp implements the Variable Reliability Protocol (paper §3.2,
// citing Denis, RR2000-11): a datagram protocol over UDP with a tunable
// loss tolerance. Applications that prefer throughput over full
// reliability (visualization streams, monitoring) accept up to a given
// fraction of losses; VRP retransmits only when the observed loss in
// the current window exceeds the budget, so the link's capacity goes to
// fresh data instead of recovery — the paper measures 500 KB/s where
// TCP collapses to 150 KB/s on a 5-10 % lossy trans-continental link.
//
// Protocol: DATA(seq) datagrams paced at the configured rate; the
// receiver acks a window summary [base, bitmap]; the sender retransmits
// only enough of the reported holes to keep the delivered-loss fraction
// under the tolerance; a hole the sender decides not to repair is
// SKIPped explicitly so the receiver can advance.
package vrp

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"padico/internal/ipstack"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// Tunables.
const (
	ackEvery    = 16 // receiver acks every N data packets
	ackInterval = 20 * time.Millisecond
)

// Stats of one VRP endpoint.
type Stats struct {
	Sent          int64
	Delivered     int64
	Skipped       int64 // holes accepted under the tolerance
	Retransmitted int64
}

// Conn is one unidirectional VRP session (sender or receiver role
// depends on which methods are used; both directions may be active).
type Conn struct {
	k         *vtime.Kernel
	udp       *ipstack.UDPConn
	peer      topology.NodeID
	peerPort  int
	tolerance float64
	rateBps   float64
	mtu       int

	// Sender state.
	nextSeq  uint64
	sendBuf  map[uint64][]byte // in-flight, not yet acked/skipped
	skipped  map[uint64]bool   // abandoned holes (skip may need resending)
	sendTime vtime.Time        // pacing horizon
	sentWin  int64             // packets sent in current accounting window
	skipWin  int64             // packets skipped in current accounting window
	tailBase uint64            // last post-horizon ack base (tail-loss detection)

	// Receiver state.
	rcvNext  uint64
	rcvStash map[uint64][]byte
	rcvQ     *vtime.Queue[Message]

	stats Stats
	tel   *telemetry.Hub
}

// Stats returns a consistent copy of the connection's counters.
func (c *Conn) Stats() Stats { return telemetry.Load(&c.stats) }

// Message is one delivered datagram. Seq gaps indicate tolerated
// losses.
type Message struct {
	Seq  uint64
	Data []byte
}

type pktKind byte

const (
	pktData pktKind = iota
	pktAck
	pktSkip
)

// New opens a VRP endpoint on the given UDP socket toward a peer.
// tolerance is the accepted loss fraction (0..1); rateBps paces the
// sender (VRP targets streams of known rate).
func New(k *vtime.Kernel, udp *ipstack.UDPConn, peer topology.NodeID, peerPort int,
	tolerance, rateBps float64) *Conn {
	c := &Conn{
		k: k, udp: udp, peer: peer, peerPort: peerPort,
		tolerance: tolerance, rateBps: rateBps,
		sendBuf:  make(map[uint64][]byte),
		skipped:  make(map[uint64]bool),
		tailBase: ^uint64(0),
		rcvStash: make(map[uint64][]byte),
		rcvQ:     vtime.NewQueue[Message](fmt.Sprintf("vrp:%d", udp.Port())),
	}
	if h := telemetry.For(k); h != nil {
		c.tel = h
		h.Registry().BindStruct("vrp", &c.stats)
	}
	mtu, err := udp.MTU(peer)
	if err != nil {
		panic(fmt.Sprintf("vrp: no route to peer: %v", err))
	}
	c.mtu = mtu - 16 // VRP header allowance
	k.GoDaemon(fmt.Sprintf("vrp-rx:%d", udp.Port()), c.rxLoop)
	return c
}

// MaxPayload returns the largest datagram payload.
func (c *Conn) MaxPayload() int { return c.mtu }

// Send transmits one datagram (paced). It never blocks; pacing is
// virtual-time based.
func (c *Conn) Send(data []byte) {
	if len(data) > c.mtu {
		panic(fmt.Sprintf("vrp: payload %d exceeds max %d", len(data), c.mtu))
	}
	seq := c.nextSeq
	c.nextSeq++
	c.sendBuf[seq] = append([]byte(nil), data...)
	atomic.AddInt64(&c.stats.Sent, 1)
	c.sentWin++
	c.sendPaced(pktData, seq, data)
}

// sendPaced schedules the packet respecting the configured rate.
func (c *Conn) sendPaced(kind pktKind, seq uint64, data []byte) {
	now := c.k.Now()
	if c.sendTime < now {
		c.sendTime = now
	}
	txTime := vtime.Duration(float64(len(data)+28) / c.rateBps * 1e9)
	at := c.sendTime
	c.sendTime = c.sendTime.Add(txTime)
	c.k.At(at, func() { c.udp.SendTo(c.peer, c.peerPort, c.packet(kind, seq, data)) })
}

// sendNow bypasses pacing: recovery traffic (skips, repairs) must not
// queue behind the whole fresh-data backlog or in-order delivery stalls
// for the stream's entire duration.
func (c *Conn) sendNow(kind pktKind, seq uint64, data []byte) {
	c.udp.SendTo(c.peer, c.peerPort, c.packet(kind, seq, data))
}

func (c *Conn) packet(kind pktKind, seq uint64, data []byte) []byte {
	pkt := make([]byte, 9+len(data))
	pkt[0] = byte(kind)
	binary.BigEndian.PutUint64(pkt[1:], seq)
	copy(pkt[9:], data)
	return pkt
}

// rxLoop handles inbound packets (data on the receiver role, acks on
// the sender role).
func (c *Conn) rxLoop(p *vtime.Proc) {
	lastAck := vtime.Time(0)
	sinceAck := 0
	for {
		dg, ok := c.udp.RecvTimeout(p, ackInterval)
		now := p.Now()
		if !ok {
			// Periodic ack keeps the sender informed even under burst loss.
			if c.rcvNext > 0 || len(c.rcvStash) > 0 {
				c.sendAckSummary()
				lastAck = now
			}
			continue
		}
		kind := pktKind(dg.Data[0])
		seq := binary.BigEndian.Uint64(dg.Data[1:])
		switch kind {
		case pktData:
			c.onData(seq, dg.Data[9:])
			sinceAck++
			if sinceAck >= ackEvery || now.Sub(lastAck) > ackInterval {
				c.sendAckSummary()
				sinceAck = 0
				lastAck = now
			}
		case pktSkip:
			c.onSkip(seq)
		case pktAck:
			c.onAck(seq, dg.Data[9:])
		}
	}
}

// onData stashes or delivers one data packet.
func (c *Conn) onData(seq uint64, data []byte) {
	if seq < c.rcvNext {
		return // duplicate of something already delivered/skipped
	}
	if _, dup := c.rcvStash[seq]; dup {
		return
	}
	c.rcvStash[seq] = append([]byte(nil), data...)
	c.deliverInOrder()
}

// onSkip marks a hole as abandoned by the sender.
func (c *Conn) onSkip(seq uint64) {
	if seq == c.rcvNext {
		c.rcvNext++
		c.deliverInOrder()
	}
}

func (c *Conn) deliverInOrder() {
	for {
		data, ok := c.rcvStash[c.rcvNext]
		if !ok {
			return
		}
		delete(c.rcvStash, c.rcvNext)
		c.rcvQ.Push(Message{Seq: c.rcvNext, Data: data})
		c.rcvNext++
	}
}

// sendAckSummary reports [base, 64-hole bitmap beyond base].
func (c *Conn) sendAckSummary() {
	var bitmap uint64
	for i := uint64(0); i < 64; i++ {
		if _, ok := c.rcvStash[c.rcvNext+i]; ok {
			bitmap |= 1 << i
		}
	}
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], bitmap)
	pkt := make([]byte, 9+8)
	pkt[0] = byte(pktAck)
	binary.BigEndian.PutUint64(pkt[1:], c.rcvNext)
	copy(pkt[9:], payload[:])
	c.udp.SendTo(c.peer, c.peerPort, pkt)
}

// onAck decides, hole by hole, between retransmission and an explicit
// skip, keeping skipped/sent under the tolerance.
func (c *Conn) onAck(base uint64, payload []byte) {
	bitmap := binary.BigEndian.Uint64(payload)
	// Everything below base is done.
	for seq := range c.sendBuf {
		if seq < base {
			delete(c.sendBuf, seq)
		}
	}
	for seq := range c.skipped {
		if seq < base {
			delete(c.skipped, seq)
		}
	}
	// Holes: positions below the highest sequence the receiver proved it
	// has. When the whole backlog has been transmitted (pacing horizon
	// passed) and the receiver still reports base < nextSeq with nothing
	// stashed, the tail itself is the hole.
	var maxKnown uint64
	known := false
	for i := uint64(0); i < 64; i++ {
		if bitmap&(1<<i) != 0 {
			maxKnown = base + i
			known = true
		}
	}
	if !known {
		// Tail-loss detection: acks lag by the one-way latency, so data
		// may legitimately still be in flight after the pacing horizon.
		// Only when the base STALLS across two post-horizon acks is the
		// tail genuinely lost.
		if c.k.Now() > c.sendTime.Add(2*ackInterval) && base < c.nextSeq && base == c.tailBase {
			maxKnown = c.nextSeq // repair/skip everything pending
		} else {
			c.tailBase = base
			return
		}
	}
	for seq := base; seq < maxKnown; seq++ {
		bit := uint64(0)
		if seq-base < 64 {
			bit = bitmap & (1 << (seq - base))
		}
		if bit != 0 {
			continue // received
		}
		data, mine := c.sendBuf[seq]
		if !mine {
			if c.skipped[seq] {
				// The skip announcement itself was lost; repeat it.
				c.sendNow(pktSkip, seq, nil)
			}
			continue
		}
		budget := c.tolerance * float64(c.sentWin)
		if float64(c.skipWin+1) <= budget {
			// Within tolerance: abandon the hole.
			c.skipWin++
			atomic.AddInt64(&c.stats.Skipped, 1)
			if c.tel.Tracing() {
				c.tel.Instant("vrp", "skip", int(c.peer)).I64("seq", int64(seq)).End()
			}
			delete(c.sendBuf, seq)
			c.skipped[seq] = true
			c.sendNow(pktSkip, seq, nil)
			continue
		}
		// Over budget: repair.
		atomic.AddInt64(&c.stats.Retransmitted, 1)
		c.sendNow(pktData, seq, data)
	}
}

// Recv blocks for the next in-order delivery (gaps = tolerated losses).
func (c *Conn) Recv(p *vtime.Proc) Message { return c.rcvQ.Pop(p) }

// RecvTimeout is Recv bounded by d.
func (c *Conn) RecvTimeout(p *vtime.Proc, d time.Duration) (Message, bool) {
	return c.rcvQ.PopTimeout(p, d)
}

// Pending returns queued deliveries.
func (c *Conn) Pending() int { return c.rcvQ.Len() }
