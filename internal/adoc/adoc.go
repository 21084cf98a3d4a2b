// Package adoc implements AdOC-style adaptive online compression (paper
// §3.2, citing Jeannot/Knutsson/Björkman): a VLink wrapper driver that
// deflates each chunk before it reaches the inner link, choosing the
// compression level adaptively — when the network is the bottleneck
// (send backlog grows) it compresses harder; when the CPU would become
// the bottleneck it backs off to light levels.
//
// Wire format per chunk: [1B level][4B origLen][4B compLen][compressed]
// where level 0 means "stored" (incompressible data passes through).
package adoc

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"

	"padico/internal/iovec"
	"padico/internal/model"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// ChunkSize bounds the unit of compression.
const ChunkSize = 32 << 10

// ErrCorrupt ends every read on a connection that received a frame that
// does not decode.
var ErrCorrupt = errors.New("adoc: corrupt frame")

// Driver decorates an inner VLink driver with adaptive compression.
type Driver struct {
	vlink.Wrapper
	k *vtime.Kernel

	// Stats
	BytesIn   int64 // pre-compression
	BytesWire int64 // post-compression
}

// New builds an AdOC driver over inner.
func New(k *vtime.Kernel, inner vlink.Driver) *Driver {
	d := &Driver{k: k}
	d.Wrapper = vlink.Wrapper{Inner: inner, Wrap: func(c vlink.Conn, _ bool, done func(vlink.Conn, error)) {
		done(newConn(d, c), nil)
	}}
	return d
}

// Name implements vlink.Driver.
func (d *Driver) Name() string { return "adoc" }

// Ratio returns the achieved compression ratio so far (1 = none).
func (d *Driver) Ratio() float64 {
	if d.BytesWire == 0 {
		return 1
	}
	return float64(d.BytesIn) / float64(d.BytesWire)
}

// conn compresses writes and decompresses reads.
type conn struct {
	vlink.Inbox
	d        *Driver
	inner    vlink.Conn
	backlog  int        // bytes accepted but not yet flushed to inner
	wHorizon vtime.Time // serializes frame emission (compressor is one CPU)

	// Per-level cached deflaters and their shared output staging: one
	// compressor CPU per connection, so reuse is race-free and the
	// per-chunk flate.NewWriter allocation disappears. The read side
	// caches the inflater and its source reader the same way.
	fw   map[int]*flate.Writer
	cbuf bytes.Buffer
	fr   io.ReadCloser
	crd  bytes.Reader
}

const chunkHdrLen = 9

func newConn(d *Driver, inner vlink.Conn) *conn {
	c := &conn{d: d, inner: inner}
	c.ReadFrames(inner, 64<<10, chunkHdrLen, frameLen, c.open)
	return c
}

// Kernel lets VLink charge costs on the right kernel.
func (c *conn) Kernel() *vtime.Kernel { return c.d.k }

// Peer implements vlink.Conn.
func (c *conn) Peer() topology.NodeID { return c.inner.Peer() }

// level picks the compression level from the current backlog: an
// uncongested link gets cheap level 1; a congested one is worth more
// CPU (AdOC's adaptation rule).
func (c *conn) level() int {
	switch {
	case c.backlog > 8*ChunkSize:
		return 9
	case c.backlog > 4*ChunkSize:
		return 6
	case c.backlog > ChunkSize:
		return 3
	default:
		return 1
	}
}

// PostWritev implements vlink.Conn. Compression transforms bytes,
// so this wrapper's contract is "copy exactly once into a pooled
// buffer": each chunk is deflated (or, when incompressible, copied
// verbatim) straight into the pooled frame that travels down the inner
// link, and the frame is released when the inner driver accepted it.
func (c *conn) PostWritev(v iovec.Vec, cb func(int, error)) {
	total := v.Len()
	nchunks := (total + ChunkSize - 1) / ChunkSize
	if nchunks == 0 {
		cb(0, nil)
		return
	}
	completed := 0
	var stage *iovec.Buf // contiguous chunk staging when a chunk spans segments
	for off := 0; off < total; off += ChunkSize {
		end := off + ChunkSize
		if end > total {
			end = total
		}
		chunk := contiguous(v, off, end-off, &stage)
		frame, lvl := c.frame(chunk)
		fb := frame.Bytes()
		c.d.BytesIn += int64(len(chunk))
		c.d.BytesWire += int64(len(fb))
		c.backlog += len(fb)
		// CPU cost of deflate scales with level. Frames must leave in
		// order, so each is scheduled after the previous one's cost on a
		// per-connection horizon (one compressor CPU).
		cost := model.CompressPerByte.Cost(len(chunk)) * vtime.Duration(1+lvl) / 5
		now := c.d.k.Now()
		if c.wHorizon < now {
			c.wHorizon = now
		}
		c.wHorizon = c.wHorizon.Add(cost)
		flen := len(fb)
		c.d.k.ScheduleAt(c.wHorizon, func() {
			c.inner.PostWritev(iovec.Make(frame.Bytes()), func(n int, err error) {
				frame.Release()
				c.backlog -= flen
				completed++
				if completed == nchunks {
					cb(total, err)
				}
			})
		})
	}
	if stage != nil {
		stage.Release()
	}
}

// frame deflates one chunk at the backlog's level (or, when that does
// not shrink it, copies it verbatim at level 0) into a pooled wire frame.
func (c *conn) frame(chunk []byte) (*iovec.Buf, int) {
	lvl := c.level()
	comp, ok := c.deflateChunk(chunk, lvl)
	if !ok {
		lvl, comp = 0, chunk
	}
	frame := iovec.Get(chunkHdrLen + len(comp))
	iovec.NewWriter(frame.Bytes()[:0]).PutU8(byte(lvl)).PutU32(uint32(len(chunk))).PutU32(uint32(len(comp))).Put(comp)
	return frame, lvl
}

// contiguous returns chunk [off, off+n) of v as one byte slice: a
// direct view when the range sits inside one segment, otherwise a copy
// into a reused pooled staging buffer (*stage).
func contiguous(v iovec.Vec, off, n int, stage **iovec.Buf) []byte {
	rem := off
	for _, s := range v.Segs {
		if rem < len(s.B) {
			if rem+n <= len(s.B) {
				return s.B[rem : rem+n]
			}
			break
		}
		rem -= len(s.B)
	}
	if *stage == nil || len((*stage).Bytes()) < n {
		if *stage != nil {
			(*stage).Release()
		}
		*stage = iovec.Get(ChunkSize)
	}
	dst := (*stage).Bytes()[:n]
	sl := v.Slice(off, n)
	sl.CopyToFrom(dst, 0)
	sl.Release()
	return dst
}

// frameLen is a frame's compressed length. A frame that claims more
// than ChunkSize on either side of the compression breaks the
// connection: once what came before it is read, every read fails with
// ErrCorrupt.
func frameLen(hdr []byte) (int, error) {
	r := iovec.NewReader(hdr[1:])
	orig, clen := r.U32(), r.U32()
	if orig > ChunkSize || clen > ChunkSize {
		return 0, ErrCorrupt
	}
	return int(clen), nil
}

// open queues a received frame's bytes: a stored frame's body as it is,
// a deflated one inflated into a pooled buffer of its stated length.
// Compressed bytes that do not inflate to that length break the
// connection like an over-long frame.
func (c *conn) open(hdr []byte, body *iovec.Buf) error {
	r := iovec.NewReader(hdr)
	if lvl, orig := r.U8(), int(r.U32()); lvl != 0 {
		out := iovec.Get(orig)
		err := c.inflate(body.Bytes(), out.Bytes())
		body.Release()
		if err != nil {
			out.Release()
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		body = out
	}
	c.Push(body, body.Bytes())
	return nil
}

// inflate decompresses comp to fill dst through the cached inflater (no
// intermediate chunk materialization).
func (c *conn) inflate(comp, dst []byte) error {
	c.crd.Reset(comp)
	if c.fr == nil {
		c.fr = flate.NewReader(&c.crd)
	} else if err := c.fr.(flate.Resetter).Reset(&c.crd, nil); err != nil {
		return err
	}
	_, err := io.ReadFull(c.fr, dst)
	return err
}

// Close implements vlink.Conn. A read still posted completes as if the
// conn were open; everything else received goes back to the pool.
func (c *conn) Close() {
	c.CloseRead()
	c.inner.Close()
}

// deflateChunk compresses data into the connection's reused staging
// buffer; ok is false when compression does not pay (incompressible
// input). The returned slice aliases c.cbuf and is consumed (copied
// into the outgoing frame) before the next chunk resets it.
func (c *conn) deflateChunk(data []byte, level int) ([]byte, bool) {
	if c.fw == nil {
		c.fw = make(map[int]*flate.Writer)
	}
	c.cbuf.Reset()
	w, ok := c.fw[level]
	if !ok {
		var err error
		w, err = flate.NewWriter(&c.cbuf, level)
		if err != nil {
			return nil, false
		}
		c.fw[level] = w
	} else {
		w.Reset(&c.cbuf)
	}
	w.Write(data)
	w.Close()
	if c.cbuf.Len() >= len(data) {
		return nil, false
	}
	return c.cbuf.Bytes(), true
}
