package madeleine

import (
	"encoding/binary"
	"fmt"

	"padico/internal/drivers/bip"
	"padico/internal/drivers/gm"
	"padico/internal/drivers/sisci"
	"padico/internal/drivers/via"
	"padico/internal/iovec"
	"padico/internal/model"
)

// Each backend maps channel group ranks to fabric addresses through the
// group slice (group[rank] = fabric address).

// ---------------------------------------------------------------------
// GM backend: 2 hardware channels = 2 GM ports.

type gmBackend struct {
	nic   *gm.NIC
	group []int
	rank  map[int]int // fabric addr -> rank
}

// NewGM builds the Madeleine GM backend for one node.
func NewGM(nic *gm.NIC, group []int) Backend {
	return &gmBackend{nic: nic, group: group, rank: rankIndex(group)}
}

func (b *gmBackend) Name() string     { return "gm" }
func (b *gmBackend) MaxChannels() int { return model.MyrinetHWChannels }

func (b *gmBackend) OpenChannel(id int, deliver func(src int, msg iovec.Vec)) (BackendChannel, error) {
	port, err := b.nic.OpenPort(id)
	if err != nil {
		return nil, err
	}
	port.SetHandler(func(ev gm.RecvEvent) { deliver(b.rank[ev.SrcAddr], ev.Msg) })
	return &gmChannel{b: b, port: port, id: id}, nil
}

type gmChannel struct {
	b    *gmBackend
	port *gm.Port
	id   int
}

// Send hands the vector to GM's gather send as it is: segment
// boundaries ride in the gather descriptor, the bytes cross by
// reference.
func (c *gmChannel) Send(dst int, msg iovec.Vec) {
	c.port.Send(c.b.group[dst], c.id, msg)
}

// ---------------------------------------------------------------------
// BIP backend: 1 hardware channel; receive credits are kept topped up so
// rendezvous never stalls (Madeleine posts receives eagerly).

type bipBackend struct {
	ep    *bip.Endpoint
	group []int
	rank  map[int]int
}

// NewBIP builds the Madeleine BIP backend for one node.
func NewBIP(ep *bip.Endpoint, group []int) Backend {
	return &bipBackend{ep: ep, group: group, rank: rankIndex(group)}
}

func (b *bipBackend) Name() string     { return "bip" }
func (b *bipBackend) MaxChannels() int { return 1 }

func (b *bipBackend) OpenChannel(id int, deliver func(src int, msg iovec.Vec)) (BackendChannel, error) {
	for i := 0; i < 64; i++ {
		b.ep.PostRecv()
	}
	b.ep.SetHandler(func(ev bip.RecvEvent) {
		b.ep.PostRecv() // keep the credit pool full
		deliver(b.rank[ev.SrcAddr], splitSegs(ev.Data))
	})
	return &bipChannel{b: b}, nil
}

type bipChannel struct{ b *bipBackend }

func (c *bipChannel) Send(dst int, msg iovec.Vec) {
	c.b.ep.Send(c.b.group[dst], flattenFramed(msg))
}

// ---------------------------------------------------------------------
// SISCI backend: 1 channel; messaging is a ring buffer in a remote
// segment plus an interrupt per message — the classic SCI pattern.

const (
	sciRingSize = 4 << 20
	sciSegBase  = 1000       // segment id = sciSegBase + writerRank
	sciWrapMark = 0xFFFFFFFF // length sentinel: "message restarts at offset 0"
)

type sciBackend struct {
	node   *sisci.Node
	group  []int
	rank   map[int]int
	inSegs map[int]*sisci.Segment // writer rank -> local segment they write into
}

// NewSISCI builds the Madeleine SCI backend for one node. Every node
// exports one inbound ring segment per peer; rings are connected lazily.
func NewSISCI(node *sisci.Node, group []int) Backend {
	b := &sciBackend{node: node, group: group, rank: rankIndex(group),
		inSegs: make(map[int]*sisci.Segment)}
	for r := range group {
		if group[r] != node.Addr() {
			b.inSegs[r] = node.CreateSegment(sciSegBase+r, sciRingSize)
		}
	}
	return b
}

func (b *sciBackend) Name() string     { return "sisci" }
func (b *sciBackend) MaxChannels() int { return model.SCIHWChannels }

func (b *sciBackend) OpenChannel(id int, deliver func(src int, msg iovec.Vec)) (BackendChannel, error) {
	c := &sciChannel{b: b, wcur: make(map[int]int), rcur: make(map[int]int),
		rings: make(map[int]*sisci.RemoteSegment)}
	// One interrupt number per sender rank.
	for r := range b.group {
		if b.group[r] == b.node.Addr() {
			continue
		}
		r := r
		b.node.RegisterInterrupt(r, func(src int) {
			c.consume(r, deliver)
		})
	}
	return c, nil
}

type sciChannel struct {
	b     *sciBackend
	rings map[int]*sisci.RemoteSegment // dst rank -> my outbound ring on dst
	wcur  map[int]int                  // write cursor per dst
	rcur  map[int]int                  // read cursor per src
}

func (c *sciChannel) ring(dst int) *sisci.RemoteSegment {
	rs, ok := c.rings[dst]
	if !ok {
		self := c.b.rank[c.b.node.Addr()]
		rs = c.b.node.Connect(c.b.group[dst], sciSegBase+self, sciRingSize)
		c.rings[dst] = rs
	}
	return rs
}

// Send frames the segment vector into the remote ring and raises the
// per-sender interrupt. Writer and reader advance cursors with the same
// deterministic rules, so no cursor exchange is needed; the ring is
// sized to hold any in-flight window of this simulation.
func (c *sciChannel) Send(dst int, vec iovec.Vec) {
	data := flattenFramed(vec)
	if 4+len(data) > sciRingSize {
		panic("madeleine/sisci: message larger than ring")
	}
	msg := make([]byte, 4+len(data))
	binary.BigEndian.PutUint32(msg, uint32(len(data)))
	copy(msg[4:], data)
	rs := c.ring(dst)
	cur := c.wcur[dst]
	if cur+len(msg) > sciRingSize { // wrap, leaving a sentinel if it fits
		if cur+4 <= sciRingSize {
			var mark [4]byte
			binary.BigEndian.PutUint32(mark[:], sciWrapMark)
			if err := rs.Write(cur, mark[:]); err != nil {
				panic(fmt.Sprintf("madeleine/sisci: sentinel write: %v", err))
			}
		}
		cur = 0
	}
	if err := rs.Write(cur, msg); err != nil {
		panic(fmt.Sprintf("madeleine/sisci: ring write: %v", err))
	}
	c.wcur[dst] = cur + len(msg)
	self := c.b.rank[c.b.node.Addr()]
	rs.TriggerInterrupt(self)
}

// consume reads one framed message from the inbound ring of src. The
// reader mirrors the writer's deterministic cursor rules, so no cursor
// exchange is needed.
func (c *sciChannel) consume(src int, deliver func(src int, msg iovec.Vec)) {
	seg := c.b.inSegs[src]
	cur := c.rcur[src]
	if cur+4 > sciRingSize {
		cur = 0
	} else if binary.BigEndian.Uint32(seg.Mem[cur:]) == sciWrapMark {
		cur = 0
	}
	n := int(binary.BigEndian.Uint32(seg.Mem[cur:]))
	data := append([]byte(nil), seg.Mem[cur+4:cur+4+n]...)
	c.rcur[src] = cur + 4 + n
	deliver(src, splitSegs(data))
}

// ---------------------------------------------------------------------
// VIA backend: 1 channel; receives are re-posted in the completion
// handler, so the initial descriptor pool never drains (the simulated
// fabric delivers sequentially).

const viaBufSize = 64 << 10

type viaBackend struct {
	nic   *via.NIC
	group []int
	rank  map[int]int
}

// NewVIA builds the Madeleine VIA backend for one node.
func NewVIA(nic *via.NIC, group []int) Backend {
	return &viaBackend{nic: nic, group: group, rank: rankIndex(group)}
}

func (b *viaBackend) Name() string     { return "via" }
func (b *viaBackend) MaxChannels() int { return 1 }

func (b *viaBackend) OpenChannel(id int, deliver func(src int, msg iovec.Vec)) (BackendChannel, error) {
	vi := b.nic.CreateVI(id)
	for i := 0; i < 64; i++ {
		vi.PostRecv(make([]byte, viaBufSize))
	}
	asm := make(map[int][]byte) // src rank -> partial message
	vi.SetHandler(func(comp via.Completion) {
		vi.PostRecv(make([]byte, viaBufSize))
		src := b.rank[comp.SrcAddr]
		// First byte flags the final sub-message of a Madeleine message.
		last := comp.Data[0] == 1
		asm[src] = append(asm[src], comp.Data[1:]...)
		if last {
			data := asm[src]
			delete(asm, src)
			deliver(src, splitSegs(data))
		}
	})
	return &viaChannel{b: b, vi: vi, id: id}, nil
}

type viaChannel struct {
	b  *viaBackend
	vi *via.VI
	id int
}

func (c *viaChannel) Send(dst int, msg iovec.Vec) {
	data := flattenFramed(msg)
	for off := 0; off < len(data) || off == 0; off += viaBufSize - 1 {
		end := off + viaBufSize - 1
		if end > len(data) {
			end = len(data)
		}
		sub := make([]byte, 1+end-off)
		if end == len(data) {
			sub[0] = 1
		}
		copy(sub[1:], data[off:end])
		c.vi.PostSend(c.b.group[dst], c.id, sub)
		if end == len(data) {
			break
		}
	}
}

// ---------------------------------------------------------------------
// Framing for the backends whose emulated hardware copies (BIP's
// buffers, SCI's remote ring, VIA's descriptors): there a segment
// vector travels as the byte stream [count][len0][seg0][len1][seg1]...
// so that Unpack gets the boundaries back. GM needs none of this.

// flattenFramed copies msg into its framed byte stream. The copy ends
// the message's hold on the sender's memory, so msg's buffer references
// are released here.
func flattenFramed(msg iovec.Vec) []byte {
	out := make([]byte, 0, 4+4*len(msg.Segs)+msg.Len())
	out = binary.BigEndian.AppendUint32(out, uint32(len(msg.Segs)))
	for _, s := range msg.Segs {
		out = binary.BigEndian.AppendUint32(out, uint32(len(s.B)))
		out = append(out, s.B...)
	}
	msg.Release()
	return out
}

// splitSegs is the inverse: plain views into the received stream.
func splitSegs(data []byte) iovec.Vec {
	n := int(binary.BigEndian.Uint32(data))
	msg := iovec.Vec{Segs: make([]iovec.Seg, 0, n)}
	off := 4
	for i := 0; i < n; i++ {
		l := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		msg.Append(nil, data[off:off+l])
		off += l
	}
	return msg
}

func rankIndex(group []int) map[int]int {
	m := make(map[int]int, len(group))
	for r, addr := range group {
		m[addr] = r
	}
	return m
}
