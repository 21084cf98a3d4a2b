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
	"errors"
	"fmt"

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

// ErrCorrupt ends the reads of a striped link that received a chunk
// header claiming more than ChunkSize.
var ErrCorrupt = errors.New("pstreams: corrupt chunk header")

// Listen implements vlink.Driver: inbound inner connections are grouped
// by link id from their preamble until the announced width is reached.
func (d *Driver) Listen(port int) (vlink.Listener, error) {
	pending := make(map[uint64][]vlink.Conn) // link id -> stripes by index
	return vlink.Wrapper{Inner: d.inner, Wrap: func(c vlink.Conn, _ bool, accept func(vlink.Conn, error)) {
		buf := make([]byte, preambleLen)
		vlink.PostReadFull(c, buf, func(err error) {
			if err != nil {
				c.Close()
				return
			}
			r := iovec.NewReader(buf)
			lid, idx, total := r.U64(), int(r.U8()), int(r.U8())
			conns, ok := pending[lid]
			if !ok && total > 0 {
				conns = make([]vlink.Conn, total)
				pending[lid] = conns
			}
			// A stripe that cannot be one of the link's closes, and the
			// link waits on.
			if idx >= total || total != len(conns) || conns[idx] != nil {
				c.Close()
				return
			}
			conns[idx] = c
			for _, cc := range conns {
				if cc == nil {
					return
				}
			}
			delete(pending, lid)
			accept(newConn(d, conns), nil)
		})
	}}.Listen(port)
}

// preamble: [8B linkID][1B index][1B total]
const preambleLen = 10

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
			pre := iovec.NewWriter(make([]byte, 0, preambleLen)).PutU64(lid).PutU8(byte(i)).PutU8(byte(d.streams))
			c.PostWritev(iovec.Make(pre.Bytes()), func(int, error) {})
			conns[i] = c
			remaining--
			if remaining == 0 && !failed {
				cb(newConn(d, conns), nil)
			}
		})
	}
}

// conn is the striped logical connection. Each stripe's pump fills the
// chunk it is receiving in place and files it by sequence number in the
// inbox, which queues chunks in stream order.
type conn struct {
	vlink.Inbox
	d       *Driver
	streams []vlink.Conn
	nextW   int    // round-robin writer cursor
	seqW    uint64 // next chunk sequence number
}

// chunk header: [8B seq][4B len]
const chunkHdrLen = 12

func newConn(d *Driver, streams []vlink.Conn) *conn {
	c := &conn{d: d, streams: streams}
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
	file := c.file
	for _, s := range streams {
		c.ReadFrames(s, ChunkSize+chunkHdrLen, chunkHdrLen, chunkLen, file)
	}
	return c
}

// chunkLen is a chunk's body length, at most ChunkSize.
func chunkLen(hdr []byte) (int, error) {
	n := iovec.NewReader(hdr[8:]).U32()
	if n > ChunkSize {
		return 0, ErrCorrupt
	}
	return int(n), nil
}

// file hands a received chunk to the inbox under its sequence number.
func (c *conn) file(hdr []byte, chunk *iovec.Buf) error {
	c.PushSeq(iovec.NewReader(hdr).U64(), chunk)
	return nil
}

// Kernel lets VLink charge costs on the right kernel.
func (c *conn) Kernel() *vtime.Kernel { return c.d.k }

// Peer implements vlink.Conn.
func (c *conn) Peer() topology.NodeID { return c.streams[0].Peer() }

// PostWritev implements vlink.Conn: stripe the vector round-robin in
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
		iovec.NewWriter(hdr.Bytes()[:0]).PutU64(c.seqW).PutU32(uint32(end - off))
		c.seqW++
		frame := iovec.Owned(hdr)
		v.SliceInto(&frame, off, end-off)
		s := c.streams[c.nextW]
		c.nextW = (c.nextW + 1) % len(c.streams)
		s.PostWritev(frame, func(int, error) {
			frame.Release()
			completed++
			if completed == nchunks {
				cb(total, nil)
			}
		})
	}
}

// Close implements vlink.Conn. A read still posted completes as if the
// conn were open (with the next bytes, or io.EOF once every stripe has
// reported its own); everything else received goes back to the pool.
func (c *conn) Close() {
	c.CloseRead()
	for _, s := range c.streams {
		s.Close()
	}
}
