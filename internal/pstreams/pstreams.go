// Package pstreams implements the Parallel Streams communication method
// (paper §3.2): a single logical link striped over several TCP sockets,
// so that on a high-bandwidth high-latency WAN each isolated packet
// loss (or a too-small per-socket window) hurts only one stripe. This
// is the mechanism behind the paper's VTHD result: one stream reaches
// 9 MB/s, parallel streams reach the access link's 12 MB/s.
//
// pstreams is a VLink driver that decorates an inner driver (normally
// sysio): dialing opens N inner connections, writes are striped in
// fixed-size chunks with sequence headers, and the receiver reassembles
// the byte stream in order.
package pstreams

import (
	"encoding/binary"
	"fmt"
	"io"

	"padico/internal/iovec"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// ChunkSize is the striping unit.
const ChunkSize = 32 << 10

// Driver implements vlink.Driver with N-way striping over an inner
// driver.
type Driver struct {
	k       *vtime.Kernel
	inner   vlink.Driver
	streams int
	nextLID uint64
	node    topology.NodeID
}

// New builds a pstreams driver striping over n connections of inner.
func New(k *vtime.Kernel, node topology.NodeID, inner vlink.Driver, n int) *Driver {
	if n < 1 {
		n = 1
	}
	return &Driver{k: k, inner: inner, streams: n, node: node}
}

// Name implements vlink.Driver.
func (d *Driver) Name() string { return "pstreams" }

// Listen implements vlink.Driver: inbound inner connections are grouped
// by link id from their preamble until the announced width is reached.
func (d *Driver) Listen(port int) (vlink.Listener, error) {
	il, err := d.inner.Listen(port)
	if err != nil {
		return nil, err
	}
	l := &listener{d: d, il: il, pending: make(map[uint64]*pendingLink)}
	il.SetAcceptHandler(l.onInner)
	return l, nil
}

type listener struct {
	d       *Driver
	il      vlink.Listener
	accept  func(vlink.Conn)
	pending map[uint64]*pendingLink
}

type pendingLink struct {
	want  int
	conns []vlink.Conn
}

// preamble: [8B linkID][1B index][1B total]
const preambleLen = 10

func (l *listener) onInner(c vlink.Conn) {
	buf := make([]byte, preambleLen)
	got := 0
	var pump func(n int, err error)
	pump = func(n int, err error) {
		got += n
		if err != nil {
			c.Close()
			return
		}
		if got < preambleLen {
			c.PostRead(buf[got:], pump)
			return
		}
		lid := binary.BigEndian.Uint64(buf)
		idx := int(buf[8])
		total := int(buf[9])
		pl, ok := l.pending[lid]
		if !ok {
			pl = &pendingLink{want: total, conns: make([]vlink.Conn, total)}
			l.pending[lid] = pl
		}
		pl.conns[idx] = c
		for _, cc := range pl.conns {
			if cc == nil {
				return
			}
		}
		delete(l.pending, lid)
		pc := newConn(l.d, pl.conns)
		if l.accept != nil {
			l.accept(pc)
		}
	}
	c.PostRead(buf, pump)
}

// SetAcceptHandler implements vlink.Listener.
func (l *listener) SetAcceptHandler(fn func(vlink.Conn)) { l.accept = fn }

// Close implements vlink.Listener.
func (l *listener) Close() { l.il.Close() }

// Dial implements vlink.Driver.
func (d *Driver) Dial(addr vlink.Addr, cb func(vlink.Conn, error)) {
	d.nextLID++
	lid := d.nextLID ^ (uint64(d.node) << 48) // unique across dialing nodes
	conns := make([]vlink.Conn, d.streams)
	remaining := d.streams
	failed := false
	for i := 0; i < d.streams; i++ {
		i := i
		d.inner.Dial(addr, func(c vlink.Conn, err error) {
			if err != nil {
				if !failed {
					failed = true
					cb(nil, fmt.Errorf("pstreams: stripe %d: %w", i, err))
				}
				return
			}
			pre := make([]byte, preambleLen)
			binary.BigEndian.PutUint64(pre, lid)
			pre[8] = byte(i)
			pre[9] = byte(d.streams)
			c.PostWrite(pre, func(int, error) {})
			conns[i] = c
			remaining--
			if remaining == 0 && !failed {
				cb(newConn(d, conns), nil)
			}
		})
	}
}

// conn is the striped logical connection.
type conn struct {
	d       *Driver
	streams []vlink.Conn
	nextW   int    // round-robin writer cursor
	seqW    uint64 // next chunk sequence number

	// Reassembly: each stripe fills the chunk it is receiving in place
	// (filling), complete chunks wait in stash for their turn, then
	// queue in rx, where reads consume them head-first.
	nextSeq uint64
	filling []*iovec.Buf // per stripe; nil between chunks
	stash   map[uint64]*iovec.Buf
	rx      iovec.Queue
	eofs    int
	closed  bool
	rbuf    []byte
	rcb     func(int, error)
}

// chunk header: [8B seq][4B len]
const chunkHdrLen = 12

func newConn(d *Driver, streams []vlink.Conn) *conn {
	c := &conn{d: d, streams: streams, stash: make(map[uint64]*iovec.Buf),
		filling: make([]*iovec.Buf, len(streams))}
	// Size per-stripe socket windows so the aggregate slightly exceeds
	// the path BDP instead of multiplying the default window by the
	// stripe count (which would just fill bottleneck queues and drop).
	if len(streams) > 1 {
		per := 3 * 160 << 10 / (2 * len(streams))
		for _, s := range streams {
			if bs, ok := s.(interface{ SetBuffers(snd, rcv int) }); ok {
				bs.SetBuffers(per, per)
			}
		}
	}
	for i := range streams {
		c.startReader(i)
	}
	return c
}

// Kernel lets VLink charge costs on the right kernel.
func (c *conn) Kernel() *vtime.Kernel { return c.d.k }

// Peer implements vlink.Conn.
func (c *conn) Peer() topology.NodeID { return c.streams[0].Peer() }

// startReader pumps stripe i into the reassembler. The 12-byte header
// says how long the body is before the body arrives, so every byte read
// off the stripe is copied once, straight into the pooled chunk it will
// be consumed from.
func (c *conn) startReader(i int) {
	s := c.streams[i]
	var hdr [chunkHdrLen]byte
	got := 0 // bytes so far of the header, then of the body
	buf := make([]byte, ChunkSize+chunkHdrLen)
	var pump func(n int, err error)
	pump = func(n int, err error) {
		for data := buf[:n]; !c.orphaned(); {
			if c.filling[i] == nil {
				if !iovec.Fill(hdr[:], &got, &data) {
					break
				}
				c.filling[i], got = iovec.Get(int(binary.BigEndian.Uint32(hdr[8:]))), 0
			}
			if !iovec.Fill(c.filling[i].Bytes(), &got, &data) {
				break
			}
			c.stash[binary.BigEndian.Uint64(hdr[:])] = c.filling[i]
			c.filling[i], got = nil, 0
		}
		c.drain()
		if err != nil {
			c.eofs++
			if c.eofs == len(c.streams) {
				c.dropPartial()
				c.drain() // deliver EOF if a read is pending
			}
			return
		}
		s.PostRead(buf, pump)
	}
	s.PostRead(buf, pump)
}

// dropPartial releases what can no longer become stream bytes: chunks
// stashed behind a gap and half-received bodies.
func (c *conn) dropPartial() {
	for _, b := range c.stash {
		b.Release()
	}
	clear(c.stash)
	for i, b := range c.filling {
		if b != nil {
			b.Release()
			c.filling[i] = nil
		}
	}
}

// orphaned reports that nobody is left to read: the conn was closed and
// the read posted before that, if any, has completed. (The wrappers
// that pump a conn re-post from inside the completion; VLink posts
// nothing after Close.) The stripes are still read to their EOF, as
// TCP's half-close has it, but what arrives is dropped.
func (c *conn) orphaned() bool { return c.closed && c.rcb == nil }

// drain moves in-order chunks to rx and completes a pending read with
// everything queued, up to the size of its buffer.
func (c *conn) drain() {
	for {
		chunk, ok := c.stash[c.nextSeq]
		if !ok {
			break
		}
		delete(c.stash, c.nextSeq)
		c.nextSeq++
		c.rx.Push(chunk, chunk.Bytes())
	}
	if c.rcb != nil && (c.rx.Len() > 0 || c.eofs == len(c.streams)) {
		var err error
		if c.rx.Len() == 0 {
			err = io.EOF
		}
		n := c.rx.Read(c.rbuf)
		cb := c.rcb
		c.rcb, c.rbuf = nil, nil
		cb(n, err)
	}
	if c.orphaned() {
		c.dropPartial()
		c.rx.Release()
	}
}

// PostRead implements vlink.Conn.
func (c *conn) PostRead(buf []byte, cb func(int, error)) {
	if c.rcb != nil {
		panic("pstreams: overlapping PostRead")
	}
	c.rbuf, c.rcb = buf, cb
	c.drain()
}

// PostWrite implements vlink.Conn.
func (c *conn) PostWrite(data []byte, cb func(int, error)) {
	c.PostWritev(iovec.Make(data), cb)
}

// PostWritev implements vlink.VecConn: stripe the vector round-robin in
// ChunkSize units with sequence headers. Striping transforms no bytes,
// so it adds zero copies — each chunk frame is a pooled 12-byte header
// segment plus retained views of the caller's vector, released when the
// stripe's driver accepted (copied or owned) the frame. The completion
// fires once every stripe accepted its chunks.
func (c *conn) PostWritev(v iovec.Vec, cb func(int, error)) {
	total := v.Len()
	nchunks := (total + ChunkSize - 1) / ChunkSize
	if nchunks == 0 {
		cb(0, nil)
		return
	}
	completed := 0
	for off := 0; off < total; off += ChunkSize {
		end := off + ChunkSize
		if end > total {
			end = total
		}
		hdr := iovec.Get(chunkHdrLen)
		binary.BigEndian.PutUint64(hdr.Bytes(), c.seqW)
		binary.BigEndian.PutUint32(hdr.Bytes()[8:], uint32(end-off))
		c.seqW++
		frame := iovec.Owned(hdr)
		v.SliceInto(&frame, off, end-off)
		s := c.streams[c.nextW]
		c.nextW = (c.nextW + 1) % len(c.streams)
		postv(s, frame, func(int, error) {
			frame.Release()
			completed++
			if completed == nchunks {
				cb(total, nil)
			}
		})
	}
}

// postv writes a vector through a stripe, flattening once if the inner
// driver has no vector support.
func postv(s vlink.Conn, frame iovec.Vec, cb func(int, error)) {
	if vc, ok := s.(vlink.VecConn); ok {
		vc.PostWritev(frame, cb)
		return
	}
	flat := frame.Flatten()
	s.PostWrite(flat.Bytes(), func(n int, err error) {
		flat.Release()
		cb(n, err)
	})
}

// Close implements vlink.Conn. A read still posted completes as if the
// conn were open (with the next bytes, or io.EOF once every stripe has
// reported its own); everything else received goes back to the pool.
func (c *conn) Close() {
	c.closed = true
	c.drain()
	for _, s := range c.streams {
		s.Close()
	}
}
