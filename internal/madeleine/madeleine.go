// Package madeleine reimplements the Madeleine portability layer
// (Aumage et al., CLUSTER 2000) that PadicoTM builds MadIO on: channels
// over a static group, incremental pack/unpack with explicit semantics,
// and per-driver backends (GM, BIP, SISCI, VIA). A channel provides at
// most what the hardware offers — 2 channels on Myrinet, 1 on SCI —
// which is precisely why MadIO adds logical multiplexing above it
// (paper §4.1).
package madeleine

import (
	"errors"
	"fmt"

	"padico/internal/iovec"
	"padico/internal/madapi"
	"padico/internal/model"
	"padico/internal/vtime"
)

// Exported errors.
var (
	ErrNoChannel = errors.New("madeleine: no hardware channel left")
	ErrChanOpen  = errors.New("madeleine: channel id already open")
)

// Backend is a driver adapter bound to one node's NIC on one fabric.
// Ranks index the group the adapter was built with.
type Backend interface {
	// Name identifies the driver ("gm", "bip", "sisci", "via").
	Name() string
	// MaxChannels is the hardware channel limit.
	MaxChannels() int
	// OpenChannel binds hardware channel id and returns a sender; incoming
	// messages (the sender's segment vector, boundaries intact) are
	// passed to deliver in kernel context, buffer references included.
	OpenChannel(id int, deliver func(src int, msg iovec.Vec)) (BackendChannel, error)
}

// BackendChannel sends segment vectors to group ranks. Send takes over
// msg's buffer references: a backend whose hardware moves bytes by
// reference passes them to the receiver, one that copies releases them.
type BackendChannel interface {
	Send(dst int, msg iovec.Vec)
}

// Adapter is the per-node Madeleine instance over one backend.
type Adapter struct {
	k       *vtime.Kernel
	backend Backend
	self    int
	size    int
	open    map[int]*Channel
}

// New builds an adapter for a node with rank self in a group of size
// nodes, over the given backend.
func New(k *vtime.Kernel, backend Backend, self, size int) *Adapter {
	return &Adapter{k: k, backend: backend, self: self, size: size, open: make(map[int]*Channel)}
}

// Backend returns the underlying driver adapter.
func (a *Adapter) Backend() Backend { return a.backend }

// MaxChannels returns the hardware channel limit of the backend.
func (a *Adapter) MaxChannels() int { return a.backend.MaxChannels() }

// Open binds hardware channel id and returns the Madeleine channel.
func (a *Adapter) Open(id int) (*Channel, error) {
	if id < 0 || id >= a.backend.MaxChannels() {
		return nil, ErrNoChannel
	}
	if _, dup := a.open[id]; dup {
		return nil, ErrChanOpen
	}
	ch := &Channel{
		a: a, id: id,
		rx: vtime.NewQueue[*inMessage](fmt.Sprintf("mad:%s:%d:rx", a.backend.Name(), id)),
	}
	ch.out = vtime.NewDelayLine(a.k, model.MadeleineCost, func(m *outMessage) { ch.bc.Send(m.dst, m.msg) })
	ch.in = vtime.NewDelayLine(a.k, model.MadeleineCost, func(m *inMessage) {
		ch.MsgsRecv++
		ch.rx.Push(m)
	})
	bc, err := a.backend.OpenChannel(id, ch.deliver)
	if err != nil {
		return nil, err
	}
	ch.bc = bc
	a.open[id] = ch
	return ch, nil
}

// Channel is one Madeleine channel. It implements madapi.Channel.
type Channel struct {
	a   *Adapter
	id  int
	bc  BackendChannel
	rx  *vtime.Queue[*inMessage]
	out *vtime.DelayLine[*outMessage] // send-side cost, then the backend
	in  *vtime.DelayLine[*inMessage]  // receive-side cost, then rx

	MsgsSent int64
	MsgsRecv int64
}

var _ madapi.Channel = (*Channel)(nil)

// Self implements madapi.Channel.
func (ch *Channel) Self() int { return ch.a.self }

// Size implements madapi.Channel.
func (ch *Channel) Size() int { return ch.a.size }

// SetRxNotify installs a callback fired in kernel context whenever a
// message is queued (used by the NetAccess core poll loop).
func (ch *Channel) SetRxNotify(fn func()) { ch.rx.OnPush = fn }

// deliver runs in kernel context when the backend completes a message;
// the receive-side per-message cost is charged here.
func (ch *Channel) deliver(src int, msg iovec.Vec) {
	ch.in.Push(&inMessage{src: src, segs: msg.Segs})
}

// BeginPacking implements madapi.Channel.
func (ch *Channel) BeginPacking(dst int) madapi.OutMessage {
	if dst < 0 || dst >= ch.a.size {
		panic(fmt.Sprintf("madeleine: pack to rank %d outside group of %d", dst, ch.a.size))
	}
	m := &outMessage{ch: ch, dst: dst}
	m.msg.Segs = m.first[:0]
	return m
}

// BeginUnpacking implements madapi.Channel.
func (ch *Channel) BeginUnpacking(p *vtime.Proc) madapi.InMessage { return ch.rx.Pop(p) }

// TryBeginUnpacking implements madapi.Channel.
func (ch *Channel) TryBeginUnpacking() (madapi.InMessage, bool) {
	in, ok := ch.rx.TryPop()
	if !ok {
		return nil, false
	}
	return in, true
}

// outMessage accumulates segments until EndPacking. The vector it
// builds is the message: it travels to the receiver's Unpack by
// reference, never flattened. Each message has its own, never reused,
// so a stale handle panics; a short message lives in it whole.
type outMessage struct {
	ch     *Channel
	dst    int
	msg    iovec.Vec
	first  [5]iovec.Seg // msg's storage while the message has few segments
	used   int
	inline [24]byte // SendSafer copies, while they fit
	ended  bool
}

var _ madapi.SegPacker = (*outMessage)(nil)

// Pack implements madapi.OutMessage. SendSafer copies the buffer so the
// caller may reuse it; the other modes lend it to the receiver.
func (m *outMessage) Pack(data []byte, mode madapi.PackMode) {
	if mode == madapi.SendSafer && !m.ended { // once ended, PackSeg panics
		if end := m.used + len(data); end <= len(m.inline) {
			b := m.inline[m.used:end:end]
			copy(b, data)
			data, m.used = b, end
		} else {
			data = append([]byte(nil), data...)
		}
	}
	m.PackSeg(iovec.Seg{B: data})
}

// PackSeg implements madapi.SegPacker.
func (m *outMessage) PackSeg(s iovec.Seg) {
	if m.ended {
		panic("madeleine: Pack after EndPacking")
	}
	m.msg.Segs = append(m.msg.Segs, s)
}

// EndPacking implements madapi.OutMessage: the message leaves after the
// send-side per-message cost.
func (m *outMessage) EndPacking() {
	if m.ended {
		panic("madeleine: EndPacking twice")
	}
	m.ended = true
	m.ch.MsgsSent++
	m.ch.out.Push(m)
}

// inMessage is one received message, and then its receiver's handle:
// like outMessage, one per message.
type inMessage struct {
	src     int
	segs    []iovec.Seg
	next    int
	cheaper bool
	ended   bool
}

var _ madapi.SegUnpacker = (*inMessage)(nil)

// Src implements madapi.InMessage.
func (m *inMessage) Src() int { return m.src }

// Unpack implements madapi.InMessage. Segment sizes must match the
// packing exactly; ReceiveExpress after ReceiveCheaper violates
// Madeleine's protocol and panics. A buffer reference packed with the
// segment is dropped, not released: the bytes stay valid for the caller
// and the buffer is left to the garbage collector.
func (m *inMessage) Unpack(n int, mode madapi.UnpackMode) []byte {
	return m.UnpackSeg(n, mode).B
}

// UnpackSeg implements madapi.SegUnpacker.
func (m *inMessage) UnpackSeg(n int, mode madapi.UnpackMode) iovec.Seg {
	if m.ended {
		panic("madeleine: Unpack after EndUnpacking")
	}
	if mode == madapi.ReceiveExpress && m.cheaper {
		panic("madeleine: ReceiveExpress after ReceiveCheaper")
	}
	if mode == madapi.ReceiveCheaper {
		m.cheaper = true
	}
	segs := m.segs
	if m.next >= len(segs) {
		panic(fmt.Sprintf("madeleine: Unpack #%d beyond %d packed segments", m.next, len(segs)))
	}
	seg := segs[m.next]
	if len(seg.B) != n {
		panic(fmt.Sprintf("madeleine: Unpack size %d does not match packed segment size %d", n, len(seg.B)))
	}
	m.next++
	return seg
}

// EndUnpacking implements madapi.InMessage.
func (m *inMessage) EndUnpacking() {
	if n := len(m.segs); m.next != n {
		panic(fmt.Sprintf("madeleine: EndUnpacking with %d of %d segments unpacked", m.next, n))
	}
	m.ended = true
}

// Discard implements madapi.InMessage: the segments nobody will read
// give their buffer references back.
func (m *inMessage) Discard() {
	iovec.Vec{Segs: m.segs[m.next:]}.Release()
	m.next = len(m.segs)
	m.ended = true
}
