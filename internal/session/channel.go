package session

import (
	"fmt"
	"io"

	"padico/internal/iovec"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// ---------------------------------------------------------------------
// msgChannel: a Channel end over a message-oriented substrate (Circuit
// packing or the local pipe). Incoming seg vectors are delivered in
// kernel context; Recv consumes them segment by segment (one message
// may satisfy several Recvs), the stream view frames each Write as one
// self-describing {len, data} message.

type msgChannel struct {
	info    Info
	mgr     *Manager   // for the weather passive tap (may be nil in tests)
	observe bool       // selector-driven channel: report at close
	opened  vtime.Time // when the channel was provisioned
	// sendf is the substrate transmit (kernel-context safe). It clones
	// every segment before it returns, except the last one when lend is
	// set: that one travels by reference (WriteLent).
	sendf func(segs [][]byte, lend bool)
	// closef releases the substrate once, when this end closes (nil for
	// the pipe, the session release hook for circuits).
	closef func()
	peer   *msgChannel

	inbox  [][][]byte // delivered, unconsumed messages
	segs   [][]byte   // partially consumed message (Recv granularity)
	stream []byte     // partially consumed data segment (Read granularity)
	rx     *vtime.Cond

	sent      int // messages handed to the substrate by this end
	delivered int // messages delivered into this end's inbox
	closed    bool
	regID     int64 // live-registry id (0 when unmanaged, e.g. in tests)
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
	return &msgChannel{info: info,
		rx: vtime.NewCond(fmt.Sprintf("session:%d->%d", info.Src, info.Dst))}
}

// deliver hands one incoming message to the end (kernel context).
func (c *msgChannel) deliver(segs [][]byte) {
	c.delivered++
	c.inbox = append(c.inbox, segs)
	c.rx.Broadcast()
}

// fail marks the end dead after a node crash (kernel context): blocked
// waiters wake with err, in-flight messages are considered lost.
func (c *msgChannel) fail(err error) {
	if c.closed || c.failErr != nil {
		return
	}
	c.failErr = err
	c.rx.Broadcast()
}

// waitMessage blocks until a whole message is available, the peer
// closed (io.EOF once everything it sent was drained) or this end
// closed.
func (c *msgChannel) waitMessage(p *vtime.Proc) ([][]byte, error) {
	for {
		if c.closed {
			return nil, ErrClosed
		}
		if c.failErr != nil {
			return nil, c.failErr
		}
		if len(c.inbox) > 0 {
			msg := c.inbox[0]
			c.inbox = c.inbox[1:]
			return msg, nil
		}
		if c.peerClosed && c.delivered >= c.eofAfter {
			return nil, io.EOF
		}
		c.rx.Wait(p)
	}
}

// Send implements Channel: one packed message (or pipe delivery), every
// segment cloned before return.
func (c *msgChannel) Send(p *vtime.Proc, segs ...[]byte) error {
	if c.failErr != nil {
		return c.failErr
	}
	if c.closed || c.peerClosed {
		return ErrClosed
	}
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	c.info.Sends++
	c.info.BytesOut += int64(n)
	c.sent++
	c.sendf(segs, false)
	return nil
}

// RecvVec implements Channel: borrowed views of the delivered message
// (Release is a no-op).
func (c *msgChannel) RecvVec(p *vtime.Proc, sizes ...int) (iovec.Vec, error) {
	segs, err := c.Recv(p, sizes...)
	if err != nil {
		return iovec.Vec{}, err
	}
	return iovec.Make(segs...), nil
}

// Recv implements Channel: segment-granular consumption with exact
// sizes, buffered across calls within one message.
func (c *msgChannel) Recv(p *vtime.Proc, sizes ...int) ([][]byte, error) {
	out := make([][]byte, 0, len(sizes))
	for _, n := range sizes {
		if len(c.segs) == 0 {
			msg, err := c.waitMessage(p)
			if err != nil {
				return nil, err
			}
			c.segs = msg
		}
		s := c.segs[0]
		if len(s) != n {
			return nil, fmt.Errorf("%w: segment is %d bytes, caller expects %d", ErrProtocol, len(s), n)
		}
		c.segs = c.segs[1:]
		c.info.BytesIn += int64(len(s))
		out = append(out, s)
	}
	c.info.Recvs++
	return out, nil
}

// streamFrame is the stream view's on-message format: {4-byte length,
// payload} — the same shape the pre-session datagrid packed, so the
// refactor moves identical bytes.
const streamLenSeg = 4

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
	if c.failErr != nil {
		return 0, c.failErr
	}
	if c.closed || c.peerClosed {
		return 0, ErrClosed
	}
	var lenSeg [streamLenSeg]byte
	iovec.NewWriter(lenSeg[:0]).PutU32(uint32(len(data)))
	c.info.Sends++
	c.info.BytesOut += int64(len(data))
	c.sent++
	c.sendf([][]byte{lenSeg[:], data}, lend)
	return len(data), nil
}

// Read implements Channel: next payload bytes from the stream framing.
func (c *msgChannel) Read(p *vtime.Proc, buf []byte) (int, error) {
	if len(c.stream) == 0 {
		if len(c.segs) > 0 {
			return 0, fmt.Errorf("%w: stream read inside a partially consumed message", ErrProtocol)
		}
		msg, err := c.waitMessage(p)
		if err != nil {
			return 0, err
		}
		if len(msg) != 2 || len(msg[0]) != streamLenSeg {
			return 0, fmt.Errorf("%w: stream read on a %d-segment message", ErrProtocol, len(msg))
		}
		if n := int(iovec.NewReader(msg[0]).U32()); n != len(msg[1]) {
			return 0, fmt.Errorf("%w: framed length %d != payload %d", ErrProtocol, n, len(msg[1]))
		}
		c.stream = msg[1]
	}
	n := copy(buf, c.stream)
	c.stream = c.stream[n:]
	c.info.Recvs++
	c.info.BytesIn += int64(n)
	return n, nil
}

// ReadFull implements Channel.
func (c *msgChannel) ReadFull(p *vtime.Proc, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := c.Read(p, buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
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
	c.rx.Broadcast()
	if c.peer != nil {
		c.peer.peerClosed = true
		c.peer.eofAfter = c.sent
		c.peer.rx.Broadcast()
	}
	if c.closef != nil {
		c.closef()
	}
	if c.mgr != nil {
		c.mgr.deregister(c.regID)
		if c.observe {
			c.mgr.observeClose(c.info, c.opened)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// vlinkChannel: a Channel end over an established VLink (the
// distributed paradigm — sysio, pstreams, adoc, gsec stacks). The
// stream view delegates; the message view gather-writes and
// size-driven-reads, adding no framing of its own.

type vlinkChannel struct {
	info    Info
	mgr     *Manager   // for the weather passive tap (may be nil in tests)
	observe bool       // selector-driven channel: report at close
	opened  vtime.Time // when the channel was provisioned
	v       *vlink.VLink
	remote  Channel
	closed  bool
	regID   int64 // live-registry id (0 when unmanaged)
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
	if c.mgr != nil {
		c.mgr.deregister(c.regID)
		if c.observe {
			c.mgr.observeClose(c.info, c.opened)
		}
	}
	return nil
}
