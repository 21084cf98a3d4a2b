// Package vlinktest is test support for VLink wrapper drivers (pstreams,
// gsec, adoc): LoopbackDriver, the in-memory inner connection they stack
// on, and a Driver decorator that makes such a connection behave like a
// hostile network path. Inner reads are cut to
// random sizes, so every header and body of the wrapper's framing splits
// at every offset; they are posted after random delays, so the stripes
// of one link progress at different paces and deliver out of order; one
// connection's reads can be parked; and delivered bytes can be mangled.
// Everything is driven by the seeded Rand and the virtual-time kernel, so
// a failing seed replays.
package vlinktest

import (
	"math/rand"
	"time"

	"padico/internal/vlink"
	"padico/internal/vtime"
)

// Driver decorates Inner. The zero values of the knobs turn them off.
type Driver struct {
	Inner vlink.Driver
	K     *vtime.Kernel
	Rand  *rand.Rand
	// MaxRead cuts every inner read to 1..MaxRead bytes.
	MaxRead int
	// MaxDelay posts every inner read after a random delay up to it.
	MaxDelay time.Duration
	// Hold parks the reads of a connection while it returns true;
	// Release re-posts them. Connections are numbered per side in the
	// order they were established.
	Hold func(accepted bool, n int) bool
	// Mangle sees (and may alter) every delivered fragment; off is the
	// fragment's offset in the connection's inbound stream.
	Mangle func(accepted bool, n int, off int64, p []byte)

	dialed, accepted int
	parked           []func()
}

// Name implements vlink.Driver.
func (d *Driver) Name() string { return d.Inner.Name() }

// Listen implements vlink.Driver.
func (d *Driver) Listen(port int) (vlink.Listener, error) {
	il, err := d.Inner.Listen(port)
	if err != nil {
		return nil, err
	}
	return &listener{Listener: il, d: d}, nil
}

type listener struct {
	vlink.Listener
	d *Driver
}

func (l *listener) SetAcceptHandler(fn func(vlink.Conn)) {
	l.Listener.SetAcceptHandler(func(c vlink.Conn) {
		l.d.accepted++
		fn(&conn{Conn: c, d: l.d, accepted: true, n: l.d.accepted - 1})
	})
}

// Dial implements vlink.Driver.
func (d *Driver) Dial(addr vlink.Addr, cb func(vlink.Conn, error)) {
	d.Inner.Dial(addr, func(c vlink.Conn, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		d.dialed++
		cb(&conn{Conn: c, d: d, n: d.dialed - 1}, nil)
	})
}

// Release re-posts every parked read (Hold is consulted again).
func (d *Driver) Release() {
	parked := d.parked
	d.parked = nil
	for _, post := range parked {
		post()
	}
}

type conn struct {
	vlink.Conn
	d        *Driver
	accepted bool
	n        int
	off      int64
}

// PostRead implements vlink.Conn.
func (c *conn) PostRead(buf []byte, cb func(int, error)) {
	d := c.d
	if d.MaxRead > 0 && len(buf) > 1 {
		buf = buf[:1+d.Rand.Intn(min(len(buf), d.MaxRead))]
	}
	var post func()
	post = func() {
		if d.Hold != nil && d.Hold(c.accepted, c.n) {
			d.parked = append(d.parked, post)
			return
		}
		c.Conn.PostRead(buf, func(n int, err error) {
			if d.Mangle != nil && n > 0 {
				d.Mangle(c.accepted, c.n, c.off, buf[:n])
			}
			c.off += int64(n)
			cb(n, err)
		})
	}
	if d.MaxDelay > 0 {
		d.K.Schedule(time.Duration(d.Rand.Int63n(int64(d.MaxDelay))), post)
		return
	}
	post()
}
