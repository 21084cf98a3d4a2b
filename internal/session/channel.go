package session

import (
	"fmt"
	"io"

	"padico/internal/iovec"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// ---------------------------------------------------------------------
// msgRx: the one receive end of every message-oriented channel (the
// local pipe, the SAN circuit, the adaptive wrapper). Delivered
// messages queue in arrival order; Recv consumes them segment by
// segment (one message may satisfy several Recvs), Read consumes the
// stream payload of one message at a time. The owner supplies only its
// blocking rule (rxSource).

// Message kinds: how Read finds the stream payload of a message.
const (
	// kindFramed is a pipe or circuit message. Write sends the stream as
	// {4-byte length, payload}, the same shape the pre-session datagrid
	// packed, so the session layer moves identical bytes.
	kindFramed = 0
	// recKindMsg and recKindStream tag adaptive records: a Send, whose
	// segment boundaries are meaningful, and a Write, whose one payload
	// segment is stream bytes.
	recKindMsg    = 1
	recKindStream = 2

	streamLenSeg = 4 // the length prefix of a framed stream message
)

// rxMsg is one delivered, unconsumed message.
type rxMsg struct {
	kind byte
	segs [][]byte
}

// streamPayload returns the stream bytes a message carries, or
// ErrProtocol when it carries none.
func (m rxMsg) streamPayload() ([]byte, error) {
	switch {
	case m.kind == recKindStream && len(m.segs) == 1:
		return m.segs[0], nil
	case m.kind != kindFramed:
		return nil, fmt.Errorf("%w: stream read on a message record", ErrProtocol)
	case len(m.segs) != 2 || len(m.segs[0]) != streamLenSeg:
		return nil, fmt.Errorf("%w: stream read on a %d-segment message", ErrProtocol, len(m.segs))
	}
	if n := int(iovec.NewReader(m.segs[0]).U32()); n != len(m.segs[1]) {
		return nil, fmt.Errorf("%w: framed length %d != payload %d", ErrProtocol, n, len(m.segs[1]))
	}
	return m.segs[1], nil
}

// rxSource is an owner's blocking rule: awaitMsg blocks until the inbox
// holds a message and pops it, or returns the error that ends the wait.
type rxSource interface {
	awaitMsg(p *vtime.Proc) (rxMsg, error)
}

type msgRx struct {
	info Info // this end's description; the receive end counts Recvs and BytesIn
	src  rxSource

	inbox  []rxMsg // delivered messages; inbox[head:] are unconsumed
	head   int
	queued int         // payload bytes in inbox[head:]
	rxCond *vtime.Cond // broadcast on every delivery

	segs   [][]byte // partially consumed message (Recv granularity)
	stream []byte   // partially consumed stream payload (Read granularity)
}

// push queues one delivered message and wakes the readers (kernel
// context). A full backing array is compacted before it grows, so it
// grows with the messages pending at once, not with every message ever
// delivered.
func (r *msgRx) push(m rxMsg) {
	if r.head > 0 && len(r.inbox) == cap(r.inbox) {
		n := copy(r.inbox, r.inbox[r.head:])
		clear(r.inbox[n:])
		r.inbox, r.head = r.inbox[:n], 0
	}
	r.inbox = append(r.inbox, m)
	for _, s := range m.segs {
		r.queued += len(s)
	}
	r.rxCond.Broadcast()
}

// pending reports how many delivered messages are unconsumed.
func (r *msgRx) pending() int { return len(r.inbox) - r.head }

// pop dequeues the oldest message; the caller checked pending.
func (r *msgRx) pop() rxMsg {
	m := r.inbox[r.head]
	r.inbox[r.head] = rxMsg{}
	r.head++
	if r.head == len(r.inbox) {
		r.inbox, r.head = r.inbox[:0], 0
	}
	for _, s := range m.segs {
		r.queued -= len(s)
	}
	return m
}

// Recv implements Channel: segment-granular consumption with exact
// sizes, buffered across calls within one message; a message with no
// segments carries nothing, as an empty gather-write on a stream. When
// the sizes are the next segments of one message the result is that
// message's own segment slice, capped so an append cannot reach the
// segments after it; nothing writes a delivered message's slice again,
// so the result stays valid for as long as the caller keeps it.
func (r *msgRx) Recv(p *vtime.Proc, sizes ...int) ([][]byte, error) {
	var first, out [][]byte // out is built only when sizes span messages
	for i, n := range sizes {
		for len(r.segs) == 0 {
			if i > 0 && out == nil {
				out = append(make([][]byte, 0, len(sizes)), first[:i]...)
			}
			m, err := r.src.awaitMsg(p)
			if err != nil {
				return nil, err
			}
			if m.kind == recKindStream {
				return nil, fmt.Errorf("%w: message read on a stream record", ErrProtocol)
			}
			r.segs = m.segs
		}
		if i == 0 {
			first = r.segs
		}
		s := r.segs[0]
		if len(s) != n {
			return nil, fmt.Errorf("%w: segment is %d bytes, caller expects %d", ErrProtocol, len(s), n)
		}
		r.segs = r.segs[1:]
		r.info.BytesIn += int64(n)
		if out != nil {
			out = append(out, s)
		}
	}
	r.info.Recvs++
	if out == nil {
		return first[:len(sizes):len(sizes)], nil
	}
	return out, nil
}

// RecvVec implements Channel: borrowed views of the delivered message
// (Release is a no-op).
func (r *msgRx) RecvVec(p *vtime.Proc, sizes ...int) (iovec.Vec, error) {
	segs, err := r.Recv(p, sizes...)
	if err != nil {
		return iovec.Vec{}, err
	}
	return iovec.Make(segs...), nil
}

// Read implements Channel: next stream payload bytes, message by
// message.
func (r *msgRx) Read(p *vtime.Proc, buf []byte) (int, error) {
	if len(r.stream) == 0 {
		if len(r.segs) > 0 {
			return 0, fmt.Errorf("%w: stream read inside a partially consumed message", ErrProtocol)
		}
		m, err := r.src.awaitMsg(p)
		if err != nil {
			return 0, err
		}
		if r.stream, err = m.streamPayload(); err != nil {
			return 0, err
		}
	}
	n := copy(buf, r.stream)
	r.stream = r.stream[n:]
	r.info.Recvs++
	r.info.BytesIn += int64(n)
	return n, nil
}

// ReadFull implements Channel.
func (r *msgRx) ReadFull(p *vtime.Proc, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := r.Read(p, buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ---------------------------------------------------------------------
// provisioned: the bookkeeping of every end the Manager provisions
// (pipe, circuit, VLink): its place in the live registry and the
// weather passive tap armed by a selector-driven Open.

type provisioned struct {
	mgr     *Manager
	observe bool       // selector-driven channel: report at close
	opened  vtime.Time // when the channel was provisioned
	regID   int64      // live-registry id
}

// retire is Close's common tail: leave the live registry and feed the
// passive tap.
func (e *provisioned) retire(info Info) {
	delete(e.mgr.live, e.regID)
	if e.observe {
		e.mgr.observeClose(info, e.opened)
	}
}

// ---------------------------------------------------------------------
// msgChannel: a Channel end over a message-oriented substrate (Circuit
// packing or the local pipe). Incoming seg vectors are delivered in
// kernel context into the shared receive end; the stream view frames
// each Write as one self-describing {len, data} message.

type msgChannel struct {
	msgRx
	provisioned
	// sendf is the substrate transmit (kernel-context safe). It clones
	// every segment before it returns, except the last one when lend is
	// set: that one travels by reference (WriteLent).
	sendf func(segs [][]byte, lend bool)
	// closef releases the substrate once, when this end closes (nil for
	// the pipe, the session release hook for circuits).
	closef func()
	peer   *msgChannel

	sent      int // messages handed to the substrate by this end
	delivered int // messages delivered into this end's inbox
	closed    bool
	// failErr is set when the peer (or own) node crashed: blocked and
	// future operations return it promptly instead of stalling.
	failErr error
	// peerClosed + eofAfter implement orderly shutdown without wire
	// traffic: the peer's Close records how many messages it had sent;
	// this end reads EOF only once that many were delivered and
	// drained, so in-flight messages are never truncated.
	peerClosed bool
	eofAfter   int
}

func newMsgChannel(info Info) *msgChannel {
	c := &msgChannel{}
	c.msgRx = msgRx{info: info, src: c, rxCond: vtime.NewCond(fmt.Sprintf("session:%d->%d", info.Src, info.Dst))}
	return c
}

// deliver hands one incoming message to the end (kernel context).
func (c *msgChannel) deliver(segs [][]byte) {
	c.delivered++
	c.push(rxMsg{segs: segs})
}

// fail marks the end dead after a node crash (kernel context): blocked
// waiters wake with err, in-flight messages are considered lost.
func (c *msgChannel) fail(err error) {
	if c.closed || c.failErr != nil {
		return
	}
	c.failErr = err
	c.rxCond.Broadcast()
}

// awaitMsg implements rxSource: a whole message, or the peer closed
// (io.EOF once everything it sent was drained), or this end closed or
// failed.
func (c *msgChannel) awaitMsg(p *vtime.Proc) (rxMsg, error) {
	for {
		if c.closed {
			return rxMsg{}, ErrClosed
		}
		if c.failErr != nil {
			return rxMsg{}, c.failErr
		}
		if c.pending() > 0 {
			return c.pop(), nil
		}
		if c.peerClosed && c.delivered >= c.eofAfter {
			return rxMsg{}, io.EOF
		}
		c.rxCond.Wait(p)
	}
}

// Send implements Channel: one packed message (or pipe delivery), every
// segment cloned before return.
func (c *msgChannel) Send(p *vtime.Proc, segs ...[]byte) error {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	return c.send(segs, n, false)
}

// send hands one message of n payload bytes to the substrate.
func (c *msgChannel) send(segs [][]byte, n int, lend bool) error {
	if c.failErr != nil {
		return c.failErr
	}
	if c.closed || c.peerClosed {
		return ErrClosed
	}
	c.info.Sends++
	c.info.BytesOut += int64(n)
	c.sent++
	c.sendf(segs, lend)
	return nil
}

// Write implements Channel: one self-describing message per call, data
// cloned before return.
func (c *msgChannel) Write(p *vtime.Proc, data []byte) (int, error) {
	return c.write(data, false)
}

// WriteLent implements Channel: Write's message with the payload packed
// SendLater on a circuit, delivered as is on the pipe. The peer's Read
// copies out of the caller's memory.
func (c *msgChannel) WriteLent(p *vtime.Proc, data []byte) (int, error) {
	return c.write(data, true)
}

func (c *msgChannel) write(data []byte, lend bool) (int, error) {
	var lenSeg [streamLenSeg]byte
	iovec.NewWriter(lenSeg[:0]).PutU32(uint32(len(data)))
	if err := c.send([][]byte{lenSeg[:], data}, len(data), lend); err != nil {
		return 0, err
	}
	return len(data), nil
}

// Remote implements Channel.
func (c *msgChannel) Remote() Channel { return c.peer }

// Info implements Channel.
func (c *msgChannel) Info() Info { return c.info }

// Close implements Channel. The peer keeps draining what was already
// delivered, then reads EOF. Substrate release (refcounts, logical
// channels) happens through closef.
func (c *msgChannel) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.rxCond.Broadcast()
	if c.peer != nil {
		c.peer.peerClosed = true
		c.peer.eofAfter = c.sent
		c.peer.rxCond.Broadcast()
	}
	if c.closef != nil {
		c.closef()
	}
	c.retire(c.info)
	return nil
}

// ---------------------------------------------------------------------
// vlinkChannel: a Channel end over an established VLink (the
// distributed paradigm — sysio, pstreams, adoc, gsec stacks). The
// stream view delegates; the message view gather-writes and
// size-driven-reads, adding no framing of its own.

type vlinkChannel struct {
	provisioned
	info   Info
	v      *vlink.VLink
	remote Channel
	closed bool
}

// Send implements Channel: one gather-write, no added framing. The
// segments ride the driver stack's vectored path by reference, down to
// the socket send queue (zero copies in non-transforming wrappers).
func (c *vlinkChannel) Send(p *vtime.Proc, segs ...[]byte) error {
	c.info.Sends++
	n, err := c.v.WriteVec(p, iovec.Make(segs...))
	c.info.BytesOut += int64(n)
	return err
}

// Recv implements Channel: one ReadFull of the total, sliced into the
// requested segments.
func (c *vlinkChannel) Recv(p *vtime.Proc, sizes ...int) ([][]byte, error) {
	total := 0
	for _, n := range sizes {
		total += n
	}
	buf := make([]byte, total)
	n, err := c.v.ReadFull(p, buf)
	c.info.Recvs++
	c.info.BytesIn += int64(n)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, len(sizes))
	off := 0
	for _, n := range sizes {
		out = append(out, buf[off:off+n])
		off += n
	}
	return out, nil
}

// RecvVec implements Channel: one ReadFull of the total into a pooled
// buffer, handed out as one owned segment per requested size (the
// caller's Release returns the buffer to the pool).
func (c *vlinkChannel) RecvVec(p *vtime.Proc, sizes ...int) (iovec.Vec, error) {
	total := 0
	for _, n := range sizes {
		total += n
	}
	if len(sizes) == 0 {
		return iovec.Vec{}, nil
	}
	buf := iovec.Get(total)
	n, err := c.v.ReadFull(p, buf.Bytes())
	c.info.Recvs++
	c.info.BytesIn += int64(n)
	if err != nil {
		buf.Release()
		return iovec.Vec{}, err
	}
	out := iovec.Vec{Segs: make([]iovec.Seg, 0, len(sizes))}
	off := 0
	for i, n := range sizes {
		if i > 0 {
			buf.Retain() // one reference per handed-out segment
		}
		out.Append(buf, buf.Bytes()[off:off+n])
		off += n
	}
	return out, nil
}

// Read implements Channel.
func (c *vlinkChannel) Read(p *vtime.Proc, buf []byte) (int, error) {
	n, err := c.v.Read(p, buf)
	c.info.Recvs++
	c.info.BytesIn += int64(n)
	return n, err
}

// ReadFull implements Channel.
func (c *vlinkChannel) ReadFull(p *vtime.Proc, buf []byte) (int, error) {
	n, err := c.v.ReadFull(p, buf)
	c.info.Recvs++
	c.info.BytesIn += int64(n)
	return n, err
}

// Write implements Channel.
func (c *vlinkChannel) Write(p *vtime.Proc, data []byte) (int, error) {
	c.info.Sends++
	n, err := c.v.Write(p, data)
	c.info.BytesOut += int64(n)
	return n, err
}

// WriteLent implements Channel: VLink.Write returns once the bytes sit
// in the driver's send queue, so there is nothing left to lend.
func (c *vlinkChannel) WriteLent(p *vtime.Proc, data []byte) (int, error) {
	return c.Write(p, data)
}

// Remote implements Channel.
func (c *vlinkChannel) Remote() Channel { return c.remote }

// Info implements Channel.
func (c *vlinkChannel) Info() Info { return c.info }

// Close implements Channel: orderly VLink shutdown (peer reads EOF
// after draining, per the VLink contract).
func (c *vlinkChannel) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.v.Close()
	c.retire(c.info)
	return nil
}

// fail ends the VLink after a node crash: its blocked operations return.
func (c *vlinkChannel) fail(error) { c.v.Fail() }
