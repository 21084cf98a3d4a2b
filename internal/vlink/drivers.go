package vlink

import (
	"fmt"
	"io"

	"padico/internal/iovec"
	"padico/internal/ipstack"
	"padico/internal/madapi"
	"padico/internal/netaccess"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// ---------------------------------------------------------------------
// SysIO driver: the straight incarnation of VLink on distributed
// hardware — TCP sockets arbitrated by SysIO.

// SysIODriver implements Driver over the node's TCP stack via SysIO.
type SysIODriver struct {
	k    *vtime.Kernel
	host *ipstack.Host
	sys  *netaccess.SysIO
	nw   string // named network outgoing dials ride ("" = default route)
}

// NewSysIODriver builds the sysio driver for one node.
func NewSysIODriver(k *vtime.Kernel, host *ipstack.Host, sys *netaccess.SysIO) *SysIODriver {
	return &SysIODriver{k: k, host: host, sys: sys}
}

// WithNetwork returns a view of the driver whose dials are pinned to
// the named network (the selector's Decision.Network threaded down to
// the wire). Listeners and accepted connections are unaffected: the
// server side answers on whatever wire the SYN arrived on.
func (d *SysIODriver) WithNetwork(name string) *SysIODriver {
	if name == "" || name == d.nw {
		return d
	}
	nd := *d
	nd.nw = name
	return &nd
}

// Name implements Driver.
func (d *SysIODriver) Name() string { return "sysio" }

// Listen implements Driver.
func (d *SysIODriver) Listen(port int) (Listener, error) {
	ln, err := d.host.Listen(port)
	if err != nil {
		return nil, err
	}
	sl := &sysListener{d: d, ln: ln}
	d.sys.RegisterListener(ln, func(p *vtime.Proc) {
		for {
			c, ok := ln.AcceptTimeout(p, 0)
			if !ok {
				return
			}
			sc := newSysConn(d, c)
			if sl.accept != nil {
				sl.accept(sc)
			}
		}
	})
	return sl, nil
}

type sysListener struct {
	d      *SysIODriver
	ln     *ipstack.Listener
	accept func(Conn)
}

func (l *sysListener) SetAcceptHandler(fn func(Conn)) { l.accept = fn }
func (l *sysListener) Close()                         { l.ln.Close() }

// Dial implements Driver. The TCP handshake runs on a short-lived
// helper process; completion is posted back in kernel context.
func (d *SysIODriver) Dial(addr Addr, cb func(Conn, error)) {
	d.k.Go(fmt.Sprintf("vlink-dial:%d", addr.Node), func(p *vtime.Proc) {
		c, err := d.host.DialVia(p, addr.Node, addr.Port, d.nw)
		if err != nil {
			cb(nil, err)
			return
		}
		cb(newSysConn(d, c), nil)
	})
}

// sysConn adapts an ipstack.TCPConn to the async Conn interface using
// SysIO readiness callbacks.
type sysConn struct {
	d    *SysIODriver
	c    *ipstack.TCPConn
	rbuf []byte
	rcb  func(int, error)
	wq   []pendingWrite
}

type pendingWrite struct {
	vec  iovec.Vec // borrowed until cb fires
	done int
	cb   func(int, error)
}

func newSysConn(d *SysIODriver, c *ipstack.TCPConn) *sysConn {
	sc := &sysConn{d: d, c: c}
	d.sys.RegisterConn(c, sc.onReadable)
	c.SetWritableHandler(sc.onWritable)
	return sc
}

// Kernel lets VLink charge costs on the right kernel.
func (sc *sysConn) Kernel() *vtime.Kernel { return sc.d.k }

// Peer implements Conn.
func (sc *sysConn) Peer() topology.NodeID { return sc.c.Remote() }

// SetBuffers tunes the underlying socket buffers (pstreams uses this to
// size per-stripe windows).
func (sc *sysConn) SetBuffers(snd, rcv int) { sc.c.SetBuffers(snd, rcv) }

func (sc *sysConn) onReadable(p *vtime.Proc) {
	if sc.rcb == nil || !sc.c.Readable() {
		return
	}
	n, err := sc.c.Read(p, sc.rbuf) // readable: returns without blocking
	cb := sc.rcb
	sc.rcb = nil
	sc.rbuf = nil
	cb(n, err)
}

func (sc *sysConn) onWritable() {
	if sc.c.Failed() {
		// A crashed peer never opens window again: complete every queued
		// write with the error so senders fail fast instead of stalling.
		for len(sc.wq) > 0 {
			w := sc.wq[0]
			sc.wq = sc.wq[1:]
			w.cb(w.done, ipstack.ErrClosed)
		}
		return
	}
	for len(sc.wq) > 0 {
		w := &sc.wq[0]
		w.done += sc.c.TryWriteVec(w.vec, w.done)
		if w.done < w.vec.Len() {
			return // buffer full again; wait for next writable event
		}
		cb, n := w.cb, w.done
		sc.wq = sc.wq[1:]
		cb(n, nil)
	}
}

// PostRead implements Conn. If data is already queued, the readiness
// event is re-fired so the receipt loop performs the read on the I/O
// manager process.
func (sc *sysConn) PostRead(buf []byte, cb func(int, error)) {
	if sc.rcb != nil {
		panic("vlink/sysio: overlapping PostRead")
	}
	sc.rbuf, sc.rcb = buf, cb
	sc.c.PokeReady()
}

// PostWritev implements Conn: the vector's bytes are copied exactly
// once, into the TCP socket's pooled send queue, as space opens up —
// the stack's single pack point on the distributed path.
func (sc *sysConn) PostWritev(v iovec.Vec, cb func(int, error)) {
	sc.wq = append(sc.wq, pendingWrite{vec: v, cb: cb})
	if len(sc.wq) == 1 {
		sc.onWritable()
	}
}

// Close implements Conn.
func (sc *sysConn) Close() { sc.c.Close() }

// Fail implements Failer: the TCP teardown fires the readiness
// callbacks, which complete the pending read and drain queued writes
// with the error.
func (sc *sysConn) Fail(error) { sc.c.Fail() }

// ---------------------------------------------------------------------
// MadIO driver: the cross-paradigm incarnation — a distributed
// (client/server, streaming) interface on parallel SAN hardware.
// Logical connections are multiplexed on one MadIO logical channel.

// Control message kinds.
const (
	madConnect byte = iota
	madAccept
	madRefuse
	madData
	madClose
)

// Every driver message starts with one header: [1B kind][4B cid][4B arg:
// the port on connect, the length on data][1B sender-is-dialer].
const madHdrLen = 10

func putMadHdr(hdr *[madHdrLen]byte, kind byte, cid, arg uint32, dialer byte) []byte {
	return iovec.NewWriter(hdr[:0]).PutU8(kind).PutU32(cid).PutU32(arg).PutU8(dialer).Bytes()
}

// MadIODriver implements Driver over a MadIO logical channel. All
// MadIODriver instances of a fabric share logical channel `logical`.
type MadIODriver struct {
	k       *vtime.Kernel
	node    topology.NodeID
	mio     *netaccess.MadIO
	logical uint16
	rankOf  func(topology.NodeID) (int, bool) // node -> madeleine rank
	nodeOf  func(int) topology.NodeID
	ports   map[int]*madListener
	conns   map[uint32]*madConn
	dials   map[uint32]func(Conn, error)
	nextCID uint32
}

// NewMadIODriver builds the madio VLink driver for one node. rankOf
// and nodeOf translate between grid nodes and Madeleine ranks on this
// fabric.
func NewMadIODriver(k *vtime.Kernel, node topology.NodeID, mio *netaccess.MadIO, logical uint16,
	rankOf func(topology.NodeID) (int, bool), nodeOf func(int) topology.NodeID) *MadIODriver {
	d := &MadIODriver{
		k: k, node: node, mio: mio, logical: logical, rankOf: rankOf, nodeOf: nodeOf,
		ports: make(map[int]*madListener),
		conns: make(map[uint32]*madConn),
		dials: make(map[uint32]func(Conn, error)),
	}
	mio.Register(logical, d.onMessage)
	return d
}

// Name implements Driver.
func (d *MadIODriver) Name() string { return "madio" }

// Listen implements Driver.
func (d *MadIODriver) Listen(port int) (Listener, error) {
	if _, dup := d.ports[port]; dup {
		return nil, ipstack.ErrPortInUse
	}
	l := &madListener{d: d, port: port}
	d.ports[port] = l
	return l, nil
}

type madListener struct {
	d      *MadIODriver
	port   int
	accept func(Conn)
}

func (l *madListener) SetAcceptHandler(fn func(Conn)) { l.accept = fn }
func (l *madListener) Close()                         { delete(l.d.ports, l.port) }

// Dial implements Driver.
func (d *MadIODriver) Dial(addr Addr, cb func(Conn, error)) {
	rank, ok := d.rankOf(addr.Node)
	if !ok {
		cb(nil, fmt.Errorf("vlink/madio: node %d not on this fabric", addr.Node))
		return
	}
	d.nextCID++
	cid := d.nextCID
	d.dials[cid] = cb
	var hdr [madHdrLen]byte
	d.mio.SendVec(rank, d.logical, [][]byte{putMadHdr(&hdr, madConnect, cid, uint32(addr.Port), 0)}, iovec.Vec{})
}

// onMessage demultiplexes one MadIO message for this driver.
func (d *MadIODriver) onMessage(p *vtime.Proc, src int, in madapi.InMessage) {
	hdr := iovec.NewReader(in.Unpack(madHdrLen, madapi.ReceiveExpress))
	kind, cid, arg, dialer := hdr.U8(), hdr.U32(), hdr.U32(), hdr.U8()
	switch kind {
	case madConnect:
		in.EndUnpacking()
		l, ok := d.ports[int(arg)]
		var reply [madHdrLen]byte
		if !ok || l.accept == nil {
			d.mio.SendVec(src, d.logical, [][]byte{putMadHdr(&reply, madRefuse, cid, 0, 0)}, iovec.Vec{})
			return
		}
		c := d.newConn(connKeyOf(src, cid), src)
		d.mio.SendVec(src, d.logical, [][]byte{putMadHdr(&reply, madAccept, cid, 0, 0)}, iovec.Vec{})
		l.accept(c)
	case madAccept:
		in.EndUnpacking()
		cb := d.dials[cid]
		delete(d.dials, cid)
		c := d.newConn(connKeyOf(src, cid)|dialerBit, src)
		cb(c, nil)
	case madRefuse:
		in.EndUnpacking()
		cb := d.dials[cid]
		delete(d.dials, cid)
		cb(nil, ErrRefused)
	case madData:
		// The sending madConn packed its pooled buffer with the segment;
		// the reference is ours now.
		data := in.(madapi.SegUnpacker).UnpackSeg(int(arg), madapi.ReceiveCheaper)
		in.EndUnpacking()
		// dialer flags "sender is the dialer"; our matching link is then
		// the accepted one (and vice versa), which disambiguates colliding
		// connection ids from symmetric dials.
		key := connKeyOf(src, cid)
		if dialer == 0 {
			key |= dialerBit
		}
		if c, ok := d.conns[key]; ok && len(data.B) > 0 {
			c.Push(data.Owner, data.B)
			c.Deliver()
		} else {
			data.Release() // no bytes, or the link already closed here: nothing to read
		}
	case madClose:
		in.EndUnpacking()
		key := connKeyOf(src, cid)
		if dialer == 0 {
			key |= dialerBit
		}
		if c, ok := d.conns[key]; ok {
			c.End(io.EOF)
		}
	}
}

const dialerBit = uint32(1) << 31

func connKeyOf(src int, cid uint32) uint32 { return uint32(src)<<16 | (cid & 0xFFFF) }

func (d *MadIODriver) newConn(key uint32, peerRank int) *madConn {
	c := &madConn{d: d, key: key, peer: peerRank}
	d.conns[key] = c
	return c
}

// madConn is one link. Its inbox queues received data segments by
// reference; each holds the sender's pooled buffer until its bytes have
// been copied into a posted read.
type madConn struct {
	Inbox
	d    *MadIODriver
	key  uint32
	peer int
	hdr  [madHdrLen]byte // a data message's header, built here for SendVec to copy
}

// Kernel lets VLink charge costs on the right kernel.
func (c *madConn) Kernel() *vtime.Kernel { return c.d.k }

// Peer implements Conn.
func (c *madConn) Peer() topology.NodeID { return c.d.nodeOf(c.peer) }

func (c *madConn) cid() uint32 { return c.key & 0xFFFF }

func (c *madConn) isDialer() byte {
	if c.key&dialerBit != 0 {
		return 1
	}
	return 0
}

// Fail implements Failer: a crashed peer's pending read completes with
// the error at once (a dead SAN NIC never delivers the close message),
// and what was queued unread goes back to the pool.
func (c *madConn) Fail(err error) {
	if c.Closed() {
		return
	}
	delete(c.d.conns, c.key) // late data is released on arrival (onMessage)
	c.Abort(err)
}

// PostWritev implements Conn: the vector rides one MadIO message. SAN
// links are far faster than any producer here, so the driver accepts
// immediately (no flow control, as on a well-provisioned SAN). The
// caller's borrow ends when cb fires, which is at once, while MadIO
// lends its segments all the way to the receiver — so the bytes are
// copied here, once, into a pooled buffer the message owns: the send
// side's one copy. The receiving madConn releases the buffer after
// copying it out.
func (c *madConn) PostWritev(v iovec.Vec, cb func(int, error)) {
	if c.Closed() {
		cb(0, ErrClosed)
		return
	}
	buf := v.Flatten()
	n := len(buf.Bytes())
	hdr := putMadHdr(&c.hdr, madData, c.cid(), uint32(n), c.isDialer()) // MadIO copies it
	c.d.mio.SendVec(c.peer, c.d.logical, [][]byte{hdr}, iovec.Owned(buf))
	cb(n, nil)
}

// Close implements Conn: late data is released on arrival (onMessage),
// and what was queued unread goes back to the pool.
func (c *madConn) Close() {
	if c.Closed() {
		return
	}
	var hdr [madHdrLen]byte
	c.d.mio.SendVec(c.peer, c.d.logical, [][]byte{putMadHdr(&hdr, madClose, c.cid(), 0, c.isDialer())}, iovec.Vec{})
	delete(c.d.conns, c.key)
	c.CloseRead()
}
