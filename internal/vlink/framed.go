package vlink

import (
	"io"

	"padico/internal/iovec"
)

// Inbox is the receive end of a conn whose bytes arrive in pooled
// buffers; the pstreams, gsec and AdOC wrappers and the madio driver's
// links embed it, and its PostRead is theirs. Buffers queue in order and
// are read head-first, each released as its last byte is copied out.
// One rule ends every stream: the queued bytes are read first, then
// every read completes with the error that ended it (io.EOF, or the wire
// format's own). A closed inbox keeps the read posted before Close; once
// none is posted it releases everything it holds and drops what arrives
// later.
type Inbox struct {
	q      iovec.Queue
	stash  map[uint64]*iovec.Buf // PushSeq frames waiting for next
	next   uint64                // the sequence number queued next
	pumps  []*pump
	ended  int   // pumps whose inner conn has ended
	err    error // ends the stream once the queue is read
	done   bool  // nothing more is queued
	closed bool
	buf    []byte
	cb     func(int, error)
}

// PostRead implements Conn.
func (in *Inbox) PostRead(buf []byte, cb func(int, error)) {
	if in.cb != nil {
		panic("vlink: overlapping PostRead")
	}
	in.buf, in.cb = buf, cb
	in.Deliver()
}

// Push queues view, a region of owner's bytes (owner may be nil), and
// takes over the caller's reference; the posted read sees it at the next
// Deliver.
func (in *Inbox) Push(owner *iovec.Buf, view []byte) {
	if in.done {
		iovec.Seg{Owner: owner}.Release()
		return
	}
	in.q.Push(owner, view)
}

// PushSeq is Push for frames that arrive out of order (pstreams'
// stripes): b is queued as frame seq once every frame before it is. A
// frame already queued or already waiting is dropped.
func (in *Inbox) PushSeq(seq uint64, b *iovec.Buf) {
	if _, dup := in.stash[seq]; in.done || seq < in.next || dup {
		b.Release()
		return
	}
	if seq > in.next {
		if in.stash == nil {
			in.stash = make(map[uint64]*iovec.Buf)
		}
		in.stash[seq] = b
		return
	}
	for ok := true; ok; b, ok = in.stash[in.next] {
		delete(in.stash, in.next)
		in.q.Push(b, b.Bytes())
		in.next++
	}
}

// End ends the stream with err once the queue is read (the first error
// stands); what can no longer become stream bytes, frames stashed behind
// a gap and half-received bodies, goes back to the pool.
func (in *Inbox) End(err error) {
	if in.err == nil {
		in.err = err
	}
	in.drop()
	in.Deliver()
}

// Abort is the crash path: the queue is released unread and the posted
// read completes with err at once.
func (in *Inbox) Abort(err error) {
	in.closed, in.err = true, err
	in.q.Release()
	in.End(err)
}

// CloseRead is the receive half of a Close.
func (in *Inbox) CloseRead() {
	in.closed = true
	in.Deliver()
}

// Closed reports whether CloseRead or Abort ran.
func (in *Inbox) Closed() bool { return in.closed }

// Deliver completes the posted read with what is queued or, once nothing
// is, with the stream's error; then a closed inbox with no read posted
// releases everything.
func (in *Inbox) Deliver() {
	if in.cb != nil && (in.q.Len() > 0 || in.err != nil) {
		var err error
		if in.q.Len() == 0 {
			err = in.err
		}
		n := in.q.Read(in.buf)
		cb := in.cb
		in.cb, in.buf = nil, nil
		cb(n, err)
	}
	if in.closed && in.cb == nil {
		in.drop()
		in.q.Release()
	}
}

func (in *Inbox) drop() {
	in.done = true
	for _, b := range in.stash {
		b.Release()
	}
	clear(in.stash)
	for _, p := range in.pumps {
		if p.body != nil {
			p.body.Release()
			p.body = nil
		}
	}
}

// pump reads one inner conn of a framed stream.
type pump struct {
	in     *Inbox
	inner  Conn
	buf    []byte // the inner read buffer
	hdr    [16]byte
	hdrLen int
	got    int        // bytes so far of hdr, then of body
	body   *iovec.Buf // the frame being received
	size   func(hdr []byte) (int, error)
	open   func(hdr []byte, body *iovec.Buf) error
	failed bool
	step   func(int, error) // read, bound once
}

// ReadFrames pumps inner into the inbox as frames of a hdrLen-byte
// header (at most 16) and a body of size(hdr) bytes, read off inner in
// reads of readLen bytes. size enforces the format's maximum, so an
// over-long claim ends the stream with the format's error before
// anything is allocated. Each body is copied once, into a pooled buffer,
// and handed to open, which takes over the reference and queues what
// the frame carries; an error from open ends the stream too. Either
// error closes inner. The stream ends with io.EOF once every conn pumped
// into the inbox has ended. A closed inbox's inner conns are still read
// to their end, as TCP's half-close has it, and what arrives is dropped.
func (in *Inbox) ReadFrames(inner Conn, readLen, hdrLen int,
	size func(hdr []byte) (int, error), open func(hdr []byte, body *iovec.Buf) error) {
	p := &pump{in: in, inner: inner, buf: make([]byte, readLen), hdrLen: hdrLen, size: size, open: open}
	p.step = p.read
	in.pumps = append(in.pumps, p)
	inner.PostRead(p.buf, p.step)
}

func (p *pump) read(n int, err error) {
	hdr, data := p.hdr[:p.hdrLen], p.buf[:n]
	for !p.in.done && !p.failed {
		if p.body == nil {
			if !iovec.Fill(hdr, &p.got, &data) {
				break
			}
			size, bad := p.size(hdr)
			if bad != nil {
				p.fail(bad)
				break
			}
			p.body, p.got = iovec.Get(size), 0
		}
		if !iovec.Fill(p.body.Bytes(), &p.got, &data) {
			break
		}
		body := p.body
		p.body, p.got = nil, 0
		if bad := p.open(hdr, body); bad != nil {
			p.fail(bad)
		}
	}
	p.in.Deliver()
	switch {
	case p.failed:
	case err != nil:
		if p.in.ended++; p.in.ended == len(p.in.pumps) {
			p.in.End(io.EOF)
		}
	default:
		p.inner.PostRead(p.buf, p.step)
	}
}

func (p *pump) fail(err error) {
	p.failed = true
	p.inner.Close()
	p.in.End(err)
}

// PostReadFull reads exactly len(buf) bytes off c through chained
// PostReads, then calls done.
func PostReadFull(c Conn, buf []byte, done func(error)) {
	got := 0
	var step func(n int, err error)
	step = func(n int, err error) {
		got += n
		switch {
		case err != nil:
			done(err)
		case got < len(buf):
			c.PostRead(buf[got:], step)
		default:
			done(nil)
		}
	}
	c.PostRead(buf, step)
}

// Wrapper is a wrapper driver's Listen and Dial: every conn of Inner
// goes through Wrap, at once or after a handshake, which hands on what
// it makes of it or an error. An inbound conn Wrap fails is closed.
type Wrapper struct {
	Inner Driver
	Wrap  func(c Conn, dialer bool, done func(Conn, error))
}

// Listen implements Driver.
func (w Wrapper) Listen(port int) (Listener, error) {
	il, err := w.Inner.Listen(port)
	if err != nil {
		return nil, err
	}
	f := &forwarder{inner: il}
	il.SetAcceptHandler(func(c Conn) {
		w.Wrap(c, false, func(wc Conn, err error) {
			if err != nil {
				c.Close()
			} else if f.accept != nil {
				f.accept(wc)
			}
		})
	})
	return f, nil
}

// Dial implements Driver.
func (w Wrapper) Dial(addr Addr, cb func(Conn, error)) {
	w.Inner.Dial(addr, func(c Conn, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		w.Wrap(c, true, cb)
	})
}

// forwarder is every wrapper driver's Listener.
type forwarder struct {
	inner  Listener
	accept func(Conn)
}

func (f *forwarder) SetAcceptHandler(fn func(Conn)) { f.accept = fn }
func (f *forwarder) Close()                         { f.inner.Close() }
