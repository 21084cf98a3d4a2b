// Package circuit implements the parallel-paradigm abstract interface
// of the paper's abstraction layer (§4.2): communication on a definite
// set of nodes (a group — a cluster, a subset, or spanning several
// sites), an interface optimized for parallel runtimes with incremental
// packing and explicit semantics, and per-link adapters: a given
// Circuit instance can use different adapters for different links —
// MadIO (straight), VLink (cross-paradigm, including the
// alternate WAN methods), and loopback.
//
// Collective operations, which the paper lists as future work
// ("Collective operations in Circuit still needs to be investigated"),
// are not part of Circuit: internal/group builds them on the session
// layer.
package circuit

import (
	"fmt"
	"sort"

	"padico/internal/madapi"
	"padico/internal/model"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// LinkAdapter carries segment vectors to one fixed remote rank.
type LinkAdapter interface {
	// Name identifies the adapter kind ("madio", "vlink", "loopback").
	Name() string
	// Send transmits one message.
	Send(segs [][]byte)
}

// Circuit is one instance of the parallel abstract interface.
type Circuit struct {
	k     *vtime.Kernel
	name  string
	self  int
	group []topology.NodeID
	links map[int]LinkAdapter
	rx    *vtime.Queue[*inMessage]
	pool  []*transit // spent transit descriptors

	MsgsSent int64
	MsgsRecv int64
}

// New creates a circuit for rank self within group. Links are attached
// afterwards with SetLink (the selector/builder decides adapters).
func New(k *vtime.Kernel, name string, self int, group []topology.NodeID) *Circuit {
	return &Circuit{
		k: k, name: name, self: self, group: group,
		links: make(map[int]LinkAdapter),
		rx:    vtime.NewQueue[*inMessage](fmt.Sprintf("circuit:%s:%d:rx", name, self)),
	}
}

// Name returns the circuit name.
func (c *Circuit) Name() string { return c.name }

// Self implements madapi.Channel.
func (c *Circuit) Self() int { return c.self }

// Size implements madapi.Channel.
func (c *Circuit) Size() int { return len(c.group) }

// SetLink installs the adapter used to reach rank dst.
func (c *Circuit) SetLink(dst int, a LinkAdapter) { c.links[dst] = a }

// Link returns the adapter for rank dst (nil if unset).
func (c *Circuit) Link(dst int) LinkAdapter { return c.links[dst] }

// Close releases every link adapter that holds a closable resource
// (MadIO logical channels, VLinks), in rank order so teardown event
// sequences stay deterministic. The session layer calls it when the
// last channel over a cached circuit is released; closing twice is
// harmless.
func (c *Circuit) Close() {
	ranks := make([]int, 0, len(c.links))
	for r := range c.links {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		if cl, ok := c.links[r].(interface{ Close() }); ok {
			cl.Close()
		}
	}
}

// SetRxNotify installs an arrival callback (kernel context).
func (c *Circuit) SetRxNotify(fn func()) { c.rx.OnPush = fn }

// Deliver is called by adapters when a message arrives (kernel
// context). The receive-side abstraction cost is charged here. The
// adapter may reuse the segs slice, not the segments, once it returns.
func (c *Circuit) Deliver(src int, segs [][]byte) {
	in := &inMessage{src: src}
	in.segs = append(in.first[:0], segs...)
	t := c.transit()
	t.in = in
	c.k.Schedule(model.CircuitCost+model.CircuitPerByte.Cost(size(segs)), t.run)
}

// send transmits, charging the send-side abstraction cost.
func (c *Circuit) send(dst int, segs [][]byte) {
	link, ok := c.links[dst]
	if !ok {
		panic(fmt.Sprintf("circuit %s: no link from rank %d to rank %d", c.name, c.self, dst))
	}
	c.MsgsSent++
	t := c.transit()
	t.link, t.segs = link, segs
	c.k.Schedule(model.CircuitCost+model.CircuitPerByte.Cost(size(segs)), t.run)
}

func size(segs [][]byte) int {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	return n
}

// transit carries one message across the size-dependent abstraction
// cost: to the link (link set) or to the receive queue (in set). The
// circuit owns it and takes it back when the cost has elapsed.
type transit struct {
	c    *Circuit
	link LinkAdapter
	segs [][]byte
	in   *inMessage
	run  func() // fire, bound once
}

func (c *Circuit) transit() *transit {
	if n := len(c.pool); n > 0 {
		t := c.pool[n-1]
		c.pool = c.pool[:n-1]
		return t
	}
	t := &transit{c: c}
	t.run = t.fire
	return t
}

func (t *transit) fire() {
	c, link, segs, in := t.c, t.link, t.segs, t.in
	t.link, t.segs, t.in = nil, nil, nil
	c.pool = append(c.pool, t)
	if in == nil {
		link.Send(segs)
		return
	}
	c.MsgsRecv++
	c.rx.Push(in)
}

// ---------------------------------------------------------------------
// madapi.Channel: incremental packing interface.

var _ madapi.Channel = (*Circuit)(nil)

// BeginPacking implements madapi.Channel.
func (c *Circuit) BeginPacking(dst int) madapi.OutMessage {
	m := &outMessage{c: c, dst: dst}
	m.segs = m.first[:0]
	return m
}

// BeginUnpacking implements madapi.Channel.
func (c *Circuit) BeginUnpacking(p *vtime.Proc) madapi.InMessage { return c.rx.Pop(p) }

// TryBeginUnpacking implements madapi.Channel.
func (c *Circuit) TryBeginUnpacking() (madapi.InMessage, bool) {
	in, ok := c.rx.TryPop()
	if !ok {
		return nil, false
	}
	return in, true
}

// outMessage is one message being packed. Like Madeleine's, each
// message has its own, and a short one lives in it whole.
type outMessage struct {
	c      *Circuit
	dst    int
	segs   [][]byte
	first  [4][]byte
	used   int
	inline [96]byte // SendSafer copies, while they fit
	ended  bool
}

// Pack implements madapi.OutMessage.
func (m *outMessage) Pack(data []byte, mode madapi.PackMode) {
	if m.ended {
		panic("circuit: Pack after EndPacking")
	}
	if mode == madapi.SendSafer {
		if end := m.used + len(data); end <= len(m.inline) {
			b := m.inline[m.used:end:end]
			copy(b, data)
			data, m.used = b, end
		} else {
			data = append([]byte(nil), data...)
		}
	}
	m.segs = append(m.segs, data)
}

// EndPacking implements madapi.OutMessage.
func (m *outMessage) EndPacking() {
	if m.ended {
		panic("circuit: EndPacking twice")
	}
	m.ended = true
	m.c.send(m.dst, m.segs)
}

// inMessage is one received message, and then its receiver's handle.
type inMessage struct {
	src     int
	segs    [][]byte
	first   [4][]byte
	next    int
	cheaper bool
}

// Src implements madapi.InMessage.
func (m *inMessage) Src() int { return m.src }

// NextSegLen returns the size of the next segment to unpack; consumers
// that did not dictate the message's shape (the session layer) use it.
func (m *inMessage) NextSegLen() int { return len(m.segs[m.next]) }

// NumSegs returns how many segments the message was packed with;
// paradigm-agnostic consumers (the session layer) use it to unpack a
// message whose shape they did not dictate.
func (m *inMessage) NumSegs() int { return len(m.segs) }

// Unpack implements madapi.InMessage.
func (m *inMessage) Unpack(n int, mode madapi.UnpackMode) []byte {
	if mode == madapi.ReceiveExpress && m.cheaper {
		panic("circuit: ReceiveExpress after ReceiveCheaper")
	}
	if mode == madapi.ReceiveCheaper {
		m.cheaper = true
	}
	if m.next >= len(m.segs) {
		panic("circuit: Unpack beyond packed segments")
	}
	seg := m.segs[m.next]
	if len(seg) != n {
		panic(fmt.Sprintf("circuit: Unpack size %d != packed %d", n, len(seg)))
	}
	m.next++
	return seg
}

// EndUnpacking implements madapi.InMessage.
func (m *inMessage) EndUnpacking() {
	if m.next != len(m.segs) {
		panic("circuit: EndUnpacking with segments left")
	}
}

// Discard implements madapi.InMessage.
func (m *inMessage) Discard() { m.next = len(m.segs) }
