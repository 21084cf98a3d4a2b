// Package circuit implements the parallel-paradigm abstract interface
// of the paper's abstraction layer (§4.2): communication on a definite
// set of nodes (a group — a cluster, a subset, or spanning several
// sites), an interface optimized for parallel runtimes with incremental
// packing and explicit semantics, and per-link adapters: a given
// Circuit instance can use different adapters for different links —
// MadIO (straight), SysIO / VLink (cross-paradigm, including the
// alternate WAN methods), and loopback.
//
// Collective operations — which the paper lists as future work
// ("Collective operations in Circuit still needs to be investigated") —
// are implemented here as an extension: dissemination barrier, binomial
// broadcast and recursive-doubling allreduce on a control plane
// separate from point-to-point traffic.
package circuit

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"padico/internal/madapi"
	"padico/internal/model"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// Plane separates point-to-point traffic from collective traffic.
type Plane byte

const (
	PlaneData Plane = iota
	PlaneColl
)

// LinkAdapter carries segment vectors to one fixed remote rank.
type LinkAdapter interface {
	// Name identifies the adapter kind ("madio", "sysio", "vlink",
	// "loopback").
	Name() string
	// Send transmits one message on the given plane.
	Send(plane Plane, segs [][]byte)
}

// Circuit is one instance of the parallel abstract interface.
type Circuit struct {
	k     *vtime.Kernel
	name  string
	self  int
	group []topology.NodeID
	links map[int]LinkAdapter
	rx    *vtime.Queue[*inMessage]
	coll  *vtime.Queue[*inMessage]
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
		coll:  vtime.NewQueue[*inMessage](fmt.Sprintf("circuit:%s:%d:coll", name, self)),
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

// SetRxNotify installs a data-plane arrival callback (kernel context).
func (c *Circuit) SetRxNotify(fn func()) { c.rx.OnPush = fn }

// Deliver is called by adapters when a message arrives (kernel
// context). The receive-side abstraction cost is charged here. The
// adapter may reuse the segs slice, not the segments, once it returns.
func (c *Circuit) Deliver(src int, plane Plane, segs [][]byte) {
	in := &inMessage{src: src}
	in.segs = append(in.first[:0], segs...)
	t := c.transit()
	t.plane, t.in = plane, in
	c.k.Schedule(model.CircuitCost+model.CircuitPerByte.Cost(size(segs)), t.run)
}

// send transmits on a plane, charging the send-side abstraction cost.
func (c *Circuit) send(dst int, plane Plane, segs [][]byte) {
	link, ok := c.links[dst]
	if !ok {
		panic(fmt.Sprintf("circuit %s: no link from rank %d to rank %d", c.name, c.self, dst))
	}
	c.MsgsSent++
	t := c.transit()
	t.link, t.plane, t.segs = link, plane, segs
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
// cost: to the link (link set) or to a queue (in set). The circuit owns
// it and takes it back when the cost has elapsed.
type transit struct {
	c     *Circuit
	link  LinkAdapter
	plane Plane
	segs  [][]byte
	in    *inMessage
	run   func() // fire, bound once
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
	c, link, plane, segs, in := t.c, t.link, t.plane, t.segs, t.in
	t.link, t.segs, t.in = nil, nil, nil
	c.pool = append(c.pool, t)
	switch {
	case in == nil:
		link.Send(plane, segs)
	case plane == PlaneColl:
		c.MsgsRecv++
		c.coll.Push(in)
	default:
		c.MsgsRecv++
		c.rx.Push(in)
	}
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
	m.c.send(m.dst, PlaneData, m.segs)
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
// with self-describing formats (the FastMessage personality) use it.
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

// ---------------------------------------------------------------------
// Collectives (extension; see package comment).

// collRecv blocks for the next control-plane message from src with the
// given 1-byte tag (messages from other sources queue).
func (c *Circuit) collRecv(p *vtime.Proc, src int, tag byte) []byte {
	var stash []*inMessage
	defer func() {
		for _, s := range stash {
			c.coll.Push(s)
		}
	}()
	for {
		in := c.coll.Pop(p)
		if in.src == src && in.segs[0][0] == tag {
			return in.segs[1]
		}
		stash = append(stash, in)
	}
}

func (c *Circuit) collSend(dst int, tag byte, payload []byte) {
	c.send(dst, PlaneColl, [][]byte{{tag}, payload})
}

// Barrier blocks p until every rank reached the barrier (dissemination
// algorithm, ⌈log2 n⌉ rounds).
func (c *Circuit) Barrier(p *vtime.Proc) {
	n := len(c.group)
	for dist, round := 1, byte(0); dist < n; dist, round = dist*2, round+1 {
		to := (c.self + dist) % n
		from := (c.self - dist + n) % n
		c.collSend(to, 0x10+round, nil)
		c.collRecv(p, from, 0x10+round)
	}
}

// Bcast distributes root's data to every rank (binomial tree) and
// returns the data on all ranks.
func (c *Circuit) Bcast(p *vtime.Proc, root int, data []byte) []byte {
	n := len(c.group)
	vrank := (c.self - root + n) % n
	if vrank != 0 {
		// Receive from parent.
		mask := 1
		for ; mask < n; mask <<= 1 {
			if vrank&mask != 0 {
				break
			}
		}
		parent := ((vrank &^ mask) + root) % n
		data = c.collRecv(p, parent, 0x20)
	}
	// Forward to children. Links lend a message's segments all the way
	// to the receiver while the root's caller gets its buffer back as
	// soon as Bcast returns, so the root sends a copy; a forwarder's data
	// is a received message nobody else writes to.
	out := data
	if vrank == 0 {
		out = append([]byte(nil), data...)
	}
	mask := 1
	for ; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			break
		}
	}
	for m := mask >> 1; m > 0; m >>= 1 {
		child := vrank | m
		if child < n && child != vrank {
			c.collSend((child+root)%n, 0x20, out)
		}
	}
	return data
}

// ReduceOp combines two float64 values.
type ReduceOp func(a, b float64) float64

// Common reduce operations.
var (
	OpSum ReduceOp = func(a, b float64) float64 { return a + b }
	OpMax ReduceOp = func(a, b float64) float64 { return math.Max(a, b) }
	OpMin ReduceOp = func(a, b float64) float64 { return math.Min(a, b) }
)

// AllReduce combines vec element-wise across all ranks with op and
// returns the result on every rank (recursive doubling when the group
// is a power of two, ring fallback otherwise).
func (c *Circuit) AllReduce(p *vtime.Proc, vec []float64, op ReduceOp) []float64 {
	n := len(c.group)
	acc := append([]float64(nil), vec...)
	if n&(n-1) == 0 {
		for dist, round := 1, byte(0); dist < n; dist, round = dist*2, round+1 {
			peer := c.self ^ dist
			c.collSend(peer, 0x30+round, EncodeF64(acc))
			remote := DecodeF64(c.collRecv(p, peer, 0x30+round))
			for i := range acc {
				acc[i] = op(acc[i], remote[i])
			}
		}
		return acc
	}
	// Ring: n-1 steps of pass-and-accumulate, then broadcast from rank 0.
	next := (c.self + 1) % n
	prev := (c.self - 1 + n) % n
	if c.self == 0 {
		c.collSend(next, 0x40, EncodeF64(acc))
		final := DecodeF64(c.collRecv(p, prev, 0x40))
		return c.bcastF64(p, final)
	}
	partial := DecodeF64(c.collRecv(p, prev, 0x40))
	for i := range partial {
		partial[i] = op(partial[i], acc[i])
	}
	c.collSend(next, 0x40, EncodeF64(partial))
	return c.bcastF64(p, nil)
}

func (c *Circuit) bcastF64(p *vtime.Proc, data []float64) []float64 {
	var raw []byte
	if c.self == 0 {
		raw = EncodeF64(data)
	}
	return DecodeF64(c.Bcast(p, 0, raw))
}

// EncodeF64 is the collectives' float64 vector wire format (big-endian
// IEEE 754); the group layer's Reduce shares it.
func EncodeF64(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, f := range v {
		binary.BigEndian.PutUint64(out[8*i:], math.Float64bits(f))
	}
	return out
}

// DecodeF64 inverts EncodeF64.
func DecodeF64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8*i:]))
	}
	return out
}
