// Package gm emulates Myricom's GM message-passing API for Myrinet:
// ports opened on a NIC, asynchronous sends of arbitrary-size messages
// (segmented into hardware packets), and receive events delivered to a
// registered handler. GM is the primary system-level driver behind
// Madeleine's Myrinet backend (paper §4.1).
//
// Hardware constraints reproduced: a NIC exposes a small fixed number of
// ports (model.MyrinetHWChannels = 2 — this is why MadIO's logical
// multiplexing exists), messages are segmented into 4 KiB packets that
// serialize on the source link, and each message costs host CPU on both
// sides.
package gm

import (
	"errors"
	"fmt"

	"padico/internal/iovec"
	"padico/internal/model"
	"padico/internal/netsim"
	"padico/internal/vtime"
)

// Exported errors.
var (
	ErrNoPort   = errors.New("gm: no free port on NIC (hardware limit)")
	ErrPortBusy = errors.New("gm: port id already open")
)

// RecvEvent is one received message: the sender's gather list, segment
// boundaries intact. The segments are the sender's memory, handed over
// by reference together with whatever buffer references the sender
// attached; the handler owns them from here on.
type RecvEvent struct {
	SrcAddr int
	SrcPort int
	Msg     iovec.Vec
}

// Handler consumes receive events in kernel context; it must not block.
type Handler func(ev RecvEvent)

// NIC is the per-node GM instance bound to one crossbar address.
type NIC struct {
	k     *vtime.Kernel
	xb    *netsim.Crossbar
	addr  int
	ports map[int]*Port

	// Stats
	MsgsSent int64
	MsgsRecv int64
}

// message is the descriptor every packet of one message points at. The
// NICs DMA straight between the two hosts' pinned memory, so packets
// carry wire sizes only and the gather list crosses by reference; the
// receiving NIC counts arrived bytes in the same descriptor (one
// receiver per message, one kernel for both NICs). The sending port
// owns it; the receiving NIC gives it back once the message is handled
// or dropped.
type message struct {
	port             *Port // owner, and the sender
	dstAddr, dstPort int
	msg              iovec.Vec
	wire             int // framed length: what the packets add up to
	got              int // wire bytes arrived so far
	pkts             []netsim.Packet
	one              [1]netsim.Packet // pkts' storage for single-packet messages
}

// pktHeaderWire is the packet header charged on the wire (ports, message
// id, offset, total length).
const pktHeaderWire = 16

// OpenNIC attaches GM to a crossbar address. The returned NIC can open
// up to model.MyrinetHWChannels ports.
func OpenNIC(k *vtime.Kernel, xb *netsim.Crossbar, addr int) *NIC {
	n := &NIC{k: k, xb: xb, addr: addr, ports: make(map[int]*Port)}
	xb.Attach(addr, n.deliver)
	return n
}

// Addr returns the NIC's crossbar address.
func (n *NIC) Addr() int { return n.addr }

func (n *NIC) deliver(pkt *netsim.Packet) {
	m := pkt.Meta.(*message)
	chunk := pkt.Wire - pktHeaderWire
	p, ok := n.ports[m.dstPort]
	if !ok {
		// No such port: the hardware drops the packet silently, and
		// the message's buffer references go with its last packet.
		if m.got += chunk; m.got == m.wire {
			m.msg.Release()
			m.free()
		}
		return
	}
	p.packet(m, chunk)
}

// Port is one hardware communication channel.
type Port struct {
	nic     *NIC
	id      int
	handler Handler
	inject  *vtime.DelayLine[*message] // host send cost, then the wire
	recv    *vtime.DelayLine[*message] // host receive cost, then the handler
	pool    []*message                 // this port's spent messages
}

// OpenPort opens hardware port id (0 <= id < MyrinetHWChannels).
func (n *NIC) OpenPort(id int) (*Port, error) {
	if id < 0 || id >= model.MyrinetHWChannels {
		return nil, ErrNoPort
	}
	if _, dup := n.ports[id]; dup {
		return nil, ErrPortBusy
	}
	p := &Port{nic: n, id: id}
	p.inject = vtime.NewDelayLine(n.k, model.GMHostCost, p.injectPackets)
	p.recv = vtime.NewDelayLine(n.k, model.GMHostCost, p.handle)
	n.ports[id] = p
	return p, nil
}

// SetHandler installs the receive callback.
func (p *Port) SetHandler(h Handler) { p.handler = h }

// Close releases the port.
func (p *Port) Close() { delete(p.nic.ports, p.id) }

// Send transmits a gather list as one message to (dstAddr, dstPort).
// On the wire the list is its descriptor — a 4-byte segment count and a
// 4-byte length per segment — followed by the segment bytes, cut into
// MyrinetPacket-sized packets that serialize on the source link. The
// call is asynchronous: host-side CPU cost is a fixed delay before the
// first packet leaves.
//
// Like real GM the send DMAs from the caller's pinned memory: no byte
// is copied, the receiver's event carries msg itself. The segments must
// therefore stay untouched until the receiver is done with them, and
// msg's buffer references pass to the receiver.
func (p *Port) Send(dstAddr, dstPort int, msg iovec.Vec) {
	var m *message
	if n := len(p.pool); n > 0 {
		m, p.pool = p.pool[n-1], p.pool[:n-1]
	} else {
		m = &message{port: p}
	}
	m.dstAddr, m.dstPort, m.msg, m.got, m.wire = dstAddr, dstPort, msg, 0, 4+4*len(msg.Segs)+msg.Len()
	if n := (m.wire + model.MyrinetPacket - 1) / model.MyrinetPacket; n == 1 {
		m.pkts = m.one[:]
	} else if cap(m.pkts) >= n {
		m.pkts = m.pkts[:n]
	} else {
		m.pkts = make([]netsim.Packet, n)
	}
	p.nic.MsgsSent++
	// Host injection cost, then packets serialize on the crossbar.
	p.inject.Push(m)
}

func (p *Port) injectPackets(m *message) {
	for i := range m.pkts {
		chunk := min(model.MyrinetPacket, m.wire-i*model.MyrinetPacket)
		m.pkts[i] = netsim.Packet{Src: p.nic.addr, Dst: m.dstAddr, Wire: chunk + pktHeaderWire, Meta: m}
		p.nic.xb.Send(&m.pkts[i])
	}
}

// packet counts one arrived packet and, when the message is complete,
// schedules the receive event after the receive-side host cost.
func (p *Port) packet(m *message, chunk int) {
	m.got += chunk
	if m.got < m.wire {
		return
	}
	p.nic.MsgsRecv++
	p.recv.Push(m)
}

// handle runs the receive event: the handler takes msg over.
func (p *Port) handle(m *message) {
	if p.handler == nil {
		panic(fmt.Sprintf("gm: message arrived on port %d/%d with no handler", p.nic.addr, p.id))
	}
	ev := RecvEvent{SrcAddr: m.port.nic.addr, SrcPort: m.port.id, Msg: m.msg}
	m.free()
	p.handler(ev)
}

func (m *message) free() {
	m.msg = iovec.Vec{}
	m.port.pool = append(m.port.pool, m)
}
