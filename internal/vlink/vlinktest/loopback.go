package vlinktest

import (
	"fmt"
	"io"
	"time"

	"padico/internal/iovec"
	"padico/internal/ipstack"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// LoopbackDriver is an in-memory VLink driver inside one node: the
// inner connection the wrapper drivers' tests stack on. Nodes never
// dial themselves through a VLink — a same-node session opens a local
// pipe — so no grid carries this driver.
type LoopbackDriver struct {
	k     *vtime.Kernel
	node  topology.NodeID
	ports map[int]*loopListener
}

// NewLoopbackDriver builds the loopback driver for one node.
func NewLoopbackDriver(k *vtime.Kernel, node topology.NodeID) *LoopbackDriver {
	return &LoopbackDriver{k: k, node: node, ports: make(map[int]*loopListener)}
}

// Name implements vlink.Driver.
func (d *LoopbackDriver) Name() string { return "loopback" }

// Listen implements vlink.Driver.
func (d *LoopbackDriver) Listen(port int) (vlink.Listener, error) {
	if _, dup := d.ports[port]; dup {
		return nil, ipstack.ErrPortInUse
	}
	l := &loopListener{d: d, port: port}
	d.ports[port] = l
	return l, nil
}

type loopListener struct {
	d      *LoopbackDriver
	port   int
	accept func(vlink.Conn)
}

func (l *loopListener) SetAcceptHandler(fn func(vlink.Conn)) { l.accept = fn }
func (l *loopListener) Close()                               { delete(l.d.ports, l.port) }

// Dial implements vlink.Driver.
func (d *LoopbackDriver) Dial(addr vlink.Addr, cb func(vlink.Conn, error)) {
	if addr.Node != d.node {
		cb(nil, fmt.Errorf("vlinktest/loopback: %v is not the local node", addr.Node))
		return
	}
	l, ok := d.ports[addr.Port]
	if !ok || l.accept == nil {
		cb(nil, vlink.ErrRefused)
		return
	}
	a, b := newLoopPair(d)
	d.k.Schedule(500*time.Nanosecond, func() {
		l.accept(b)
		cb(a, nil)
	})
}

// Inject hands the listener on port a conn with no peer and returns its
// receive end: the test pushes the bytes the accepted conn reads (Push,
// Deliver) and ends them (End). What the conn writes goes nowhere, and
// closing it closes that receive end (Closed).
func (d *LoopbackDriver) Inject(port int) *vlink.Inbox {
	c := &loopConn{d: d}
	d.ports[port].accept(c)
	return &c.Inbox
}

// loopConn is one end of an in-memory pipe.
type loopConn struct {
	vlink.Inbox
	d    *LoopbackDriver
	peer *loopConn
}

func newLoopPair(d *LoopbackDriver) (*loopConn, *loopConn) {
	a := &loopConn{d: d}
	b := &loopConn{d: d}
	a.peer, b.peer = b, a
	return a, b
}

// Kernel lets VLink charge costs on the right kernel.
func (c *loopConn) Kernel() *vtime.Kernel { return c.d.k }

// Peer implements vlink.Conn.
func (c *loopConn) Peer() topology.NodeID { return c.d.node }

// Fail implements vlink.Failer: crash injection on an in-memory pipe
// drops what is queued and completes the pending read with the error.
func (c *loopConn) Fail(err error) { c.Abort(err) }

// PostWritev implements vlink.Conn: the bytes are copied at post time (the
// borrow ends when cb fires, which is immediately here) and delivered
// after the memcpy-scale latency.
func (c *loopConn) PostWritev(v iovec.Vec, cb func(int, error)) {
	if peer := c.peer; peer != nil {
		b := v.AppendFrom(nil, 0)
		c.d.k.Schedule(200*time.Nanosecond, func() { // memcpy-scale latency
			peer.Push(nil, b)
			peer.Deliver()
		})
	}
	cb(v.Len(), nil)
}

// Close implements vlink.Conn.
func (c *loopConn) Close() {
	if peer := c.peer; peer != nil {
		c.d.k.Schedule(200*time.Nanosecond, func() { peer.End(io.EOF) })
	} else {
		c.CloseRead()
	}
}
