// Package mpi implements an MPI subset — the parallel-paradigm
// middleware of the paper's evaluation (MPICH/Madeleine). It is written
// against the Madeleine programming interface (internal/madapi), so the
// same code runs in two configurations, exactly like the original:
//
//   - standalone: directly over a real Madeleine channel;
//   - inside PadicoTM: over the virtual-Madeleine personality on a
//     Circuit (§4.3: "Thanks to the Madeleine personality, the existing
//     MPICH/Madeleine implementation can run in PadicoTM").
//
// Features: blocking and nonblocking point-to-point with tag/source
// matching (wildcards included) and an unexpected-message queue — the
// subset the paper measures. Collectives live in internal/group.
package mpi

import (
	"encoding/binary"
	"fmt"
	"slices"

	"padico/internal/madapi"
	"padico/internal/model"
	"padico/internal/vtime"
)

// Wildcards.
const (
	AnySource = -1
	AnyTag    = -1
)

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Count  int
}

// Request is a nonblocking operation handle. A returned Request is the
// caller's for good; the blocking Send and Recv, whose callers never see
// one, give theirs back to the communicator for its next operation.
type Request struct {
	f        vtime.Future[Status]
	c        *Comm
	src, tag int    // a receive's match
	buf      []byte // a receive's destination
	dst      int    // a send, held over its middleware cost
	data     []byte
	hdr      [8]byte
	send     func() // transmit, bound once
}

// Wait blocks until completion.
func (r *Request) Wait(p *vtime.Proc) Status {
	st, _ := r.f.Wait(p)
	return st
}

// envelope is one received, unmatched message.
type envelope struct {
	src  int
	tag  int
	data []byte
}

// Comm is a communicator: one madapi channel = one context.
type Comm struct {
	k    *vtime.Kernel
	ch   madapi.Channel
	rank int
	size int

	posted     []*Request // receives, in posting order
	unexpected []envelope
	pool       []*Request // spent requests of the blocking calls

	MsgsSent int64
	MsgsRecv int64
	BytesIn  int64
	BytesOut int64
}

// New builds a communicator over a Madeleine-interface channel and
// starts its progress engine. Call once per node per channel.
func New(k *vtime.Kernel, ch madapi.Channel) *Comm {
	c := &Comm{k: k, ch: ch, rank: ch.Self(), size: ch.Size()}
	k.GoDaemon(fmt.Sprintf("mpi-progress:%d", c.rank), c.progress)
	return c
}

// Size returns the communicator size.
func (c *Comm) Size() int { return c.size }

// progress pulls messages off the channel and matches them.
func (c *Comm) progress(p *vtime.Proc) {
	for {
		in := c.ch.BeginUnpacking(p)
		hdr := in.Unpack(8, madapi.ReceiveExpress)
		tag := int(int32(binary.BigEndian.Uint32(hdr)))
		n := int(binary.BigEndian.Uint32(hdr[4:]))
		var data []byte
		if n > 0 {
			data = in.Unpack(n, madapi.ReceiveCheaper)
		}
		in.EndUnpacking()
		// Receive-side middleware cost.
		p.Consume(model.MPICost + model.MPIPerByte.Cost(n))
		c.MsgsRecv++
		c.BytesIn += int64(n)
		c.match(envelope{src: in.Src(), tag: tag, data: data})
	}
}

// match delivers an envelope to the first matching posted receive, or
// queues it as unexpected.
func (c *Comm) match(env envelope) {
	for i, r := range c.posted {
		if (r.src == AnySource || r.src == env.src) && (r.tag == AnyTag || r.tag == env.tag) {
			c.posted = slices.Delete(c.posted, i, i+1)
			complete(r, env)
			return
		}
	}
	c.unexpected = append(c.unexpected, env)
}

func complete(r *Request, env envelope) {
	n := copy(r.buf, env.data)
	if len(env.data) > len(r.buf) {
		panic(fmt.Sprintf("mpi: truncation: message of %d bytes into %d-byte buffer",
			len(env.data), len(r.buf)))
	}
	r.buf = nil
	r.f.Complete(Status{Source: env.src, Tag: env.tag, Count: n}, nil)
}

func (c *Comm) request(name string) *Request {
	var r *Request
	if n := len(c.pool); n > 0 {
		r, c.pool = c.pool[n-1], c.pool[:n-1]
	} else {
		r = &Request{c: c}
		r.send = r.transmit
	}
	r.f.Reset(name)
	return r
}

// wait blocks for r, which no caller holds, and takes it back.
func (c *Comm) wait(p *vtime.Proc, r *Request) Status {
	st := r.Wait(p)
	c.pool = append(c.pool, r)
	return st
}

// Isend starts a nonblocking send. Completion means the message was
// handed to the transport (buffered semantics).
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	if dst < 0 || dst >= c.size {
		panic(fmt.Sprintf("mpi: rank %d out of range", dst))
	}
	r := c.request("mpi:isend")
	r.dst, r.tag, r.data = dst, tag, data
	binary.BigEndian.PutUint32(r.hdr[:], uint32(int32(tag)))
	binary.BigEndian.PutUint32(r.hdr[4:], uint32(len(data)))
	c.MsgsSent++
	c.BytesOut += int64(len(data))
	c.k.Schedule(model.MPICost+model.MPIPerByte.Cost(len(data)), r.send)
	return r
}

// transmit packs a send once its middleware cost has elapsed; SendSafer
// frees the request's header and the caller's data at once.
func (r *Request) transmit() {
	c, data := r.c, r.data
	r.data = nil
	out := c.ch.BeginPacking(r.dst)
	out.Pack(r.hdr[:], madapi.SendSafer)
	if len(data) > 0 {
		out.Pack(data, madapi.SendSafer)
	}
	out.EndPacking()
	r.f.Complete(Status{Source: c.rank, Tag: r.tag, Count: len(data)}, nil)
}

// Send is the blocking send.
func (c *Comm) Send(p *vtime.Proc, dst, tag int, data []byte) {
	c.wait(p, c.Isend(dst, tag, data))
}

// Irecv posts a nonblocking receive into buf.
func (c *Comm) Irecv(src, tag int, buf []byte) *Request {
	r := c.request("mpi:irecv")
	r.src, r.tag, r.buf = src, tag, buf
	// Check the unexpected queue first (FIFO per matching order).
	for i, env := range c.unexpected {
		if (src == AnySource || src == env.src) && (tag == AnyTag || tag == env.tag) {
			c.unexpected = slices.Delete(c.unexpected, i, i+1)
			complete(r, env)
			return r
		}
	}
	c.posted = append(c.posted, r)
	return r
}

// Recv is the blocking receive; it returns the completion status.
func (c *Comm) Recv(p *vtime.Proc, src, tag int, buf []byte) Status {
	return c.wait(p, c.Irecv(src, tag, buf))
}
