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
// matching (wildcards included), unexpected-message queue, and the
// usual collectives (barrier, bcast, reduce, allreduce, gather,
// scatter, allgather, alltoall) built on point-to-point.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
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

// Reserved internal tag base for collectives.
const collTagBase = 1 << 20

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

// Test polls for completion.
func (r *Request) Test() bool { return r.f.Done() }

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

	collSeq [6]int // per-collective invocation counters (tag disambiguation)
}

// New builds a communicator over a Madeleine-interface channel and
// starts its progress engine. Call once per node per channel.
func New(k *vtime.Kernel, ch madapi.Channel) *Comm {
	c := &Comm{k: k, ch: ch, rank: ch.Self(), size: ch.Size()}
	k.GoDaemon(fmt.Sprintf("mpi-progress:%d", c.rank), c.progress)
	return c
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.rank }

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

// Sendrecv exchanges messages with two peers in one step.
func (c *Comm) Sendrecv(p *vtime.Proc, dst, stag int, sdata []byte,
	src, rtag int, rbuf []byte) Status {
	r := c.Irecv(src, rtag, rbuf)
	c.Isend(dst, stag, sdata)
	return r.Wait(p)
}

// ---------------------------------------------------------------------
// Collectives. Every invocation gets its own tag from a per-type
// sequence counter: MPI requires collectives to be issued in the same
// order on every rank, so the counters agree across ranks and
// concurrent collectives cannot cross-match.

// collTag mints the tag for one collective invocation of type op.
func (c *Comm) collTag(op int) int {
	c.collSeq[op]++
	return collTagBase + op<<12 + (c.collSeq[op] & 0xFFF)
}

// Barrier blocks until all ranks arrive (dissemination).
func (c *Comm) Barrier(p *vtime.Proc) {
	tag := c.collTag(0)
	buf := make([]byte, 1)
	for dist := 1; dist < c.size; dist *= 2 {
		to := (c.rank + dist) % c.size
		from := (c.rank - dist + c.size) % c.size
		c.Sendrecv(p, to, tag, nil, from, tag, buf[:0])
	}
}

// Bcast distributes root's data; every rank returns the payload.
// Non-roots pass nil (buffers are allocated on receipt).
func (c *Comm) Bcast(p *vtime.Proc, root int, data []byte) []byte {
	tag := c.collTag(1)
	vrank := (c.rank - root + c.size) % c.size
	// mask ends at the lowest set bit of vrank, or at the first power of
	// two >= size for the root (which then fans out to all subtrees).
	mask := 1
	for ; mask < c.size; mask <<= 1 {
		if vrank&mask != 0 {
			break
		}
	}
	if vrank != 0 {
		parent := ((vrank &^ mask) + root) % c.size
		// Length is bcast first (fixed 4-byte), then the payload.
		var lenb [4]byte
		c.Recv(p, parent, tag, lenb[:])
		n := int(binary.BigEndian.Uint32(lenb[:]))
		data = make([]byte, n)
		if n > 0 {
			c.Recv(p, parent, tag, data)
		}
	}
	for m := mask >> 1; m > 0; m >>= 1 {
		child := vrank | m
		if child < c.size && child != vrank {
			dst := (child + root) % c.size
			var lenb [4]byte
			binary.BigEndian.PutUint32(lenb[:], uint32(len(data)))
			c.Send(p, dst, tag, lenb[:])
			if len(data) > 0 {
				c.Send(p, dst, tag, data)
			}
		}
	}
	return data
}

// Op combines two equal-length float64 vectors element-wise.
type Op func(into, from []float64)

// Standard reduction operations.
var (
	Sum Op = func(into, from []float64) {
		for i := range into {
			into[i] += from[i]
		}
	}
	Max Op = func(into, from []float64) {
		for i := range into {
			into[i] = math.Max(into[i], from[i])
		}
	}
	Min Op = func(into, from []float64) {
		for i := range into {
			into[i] = math.Min(into[i], from[i])
		}
	}
)

// Reduce combines vec across ranks onto root (binomial tree); only root
// receives the result.
func (c *Comm) Reduce(p *vtime.Proc, root int, vec []float64, op Op) []float64 {
	tag := c.collTag(2)
	acc := append([]float64(nil), vec...)
	vrank := (c.rank - root + c.size) % c.size
	for mask := 1; mask < c.size; mask <<= 1 {
		if vrank&mask != 0 {
			dst := ((vrank &^ mask) + root) % c.size
			c.Send(p, dst, tag, F64Bytes(acc))
			return nil
		}
		peer := vrank | mask
		if peer < c.size {
			buf := make([]byte, 8*len(acc))
			c.Recv(p, (peer+root)%c.size, tag, buf)
			op(acc, BytesF64(buf))
		}
	}
	return acc
}

// Allreduce combines vec across all ranks and returns the result
// everywhere (reduce to 0 + bcast).
func (c *Comm) Allreduce(p *vtime.Proc, vec []float64, op Op) []float64 {
	acc := c.Reduce(p, 0, vec, op)
	out := c.Bcast(p, 0, F64Bytes(acc))
	return BytesF64(out)
}

// Gather collects each rank's data at root in rank order; only root
// receives the slices.
func (c *Comm) Gather(p *vtime.Proc, root int, data []byte) [][]byte {
	tag := c.collTag(3)
	if c.rank != root {
		c.Send(p, root, tag, data)
		return nil
	}
	out := make([][]byte, c.size)
	out[root] = append([]byte(nil), data...)
	for i := 0; i < c.size-1; i++ {
		buf := make([]byte, 1<<20)
		st := c.Recv(p, AnySource, tag, buf)
		out[st.Source] = append([]byte(nil), buf[:st.Count]...)
	}
	return out
}

// Scatter distributes root's per-rank slices; each rank returns its
// share.
func (c *Comm) Scatter(p *vtime.Proc, root int, parts [][]byte) []byte {
	tag := c.collTag(4)
	if c.rank == root {
		for r, part := range parts {
			if r == root {
				continue
			}
			c.Send(p, r, tag, part)
		}
		return append([]byte(nil), parts[root]...)
	}
	buf := make([]byte, 1<<20)
	st := c.Recv(p, root, tag, buf)
	return append([]byte(nil), buf[:st.Count]...)
}

// Allgather collects every rank's data everywhere.
func (c *Comm) Allgather(p *vtime.Proc, data []byte) [][]byte {
	parts := c.Gather(p, 0, data)
	blob := c.Bcast(p, 0, encodeParts(parts))
	return decodeParts(blob)
}

// Alltoall exchanges parts[i] with rank i; returns what each rank sent
// here, in rank order.
func (c *Comm) Alltoall(p *vtime.Proc, parts [][]byte) [][]byte {
	tag := c.collTag(5)
	out := make([][]byte, c.size)
	out[c.rank] = append([]byte(nil), parts[c.rank]...)
	reqs := make([]*Request, 0, c.size-1)
	bufs := make(map[int][]byte)
	for r := 0; r < c.size; r++ {
		if r == c.rank {
			continue
		}
		buf := make([]byte, 1<<20)
		bufs[r] = buf
		reqs = append(reqs, c.Irecv(r, tag, buf))
		c.Isend(r, tag, parts[r])
	}
	for _, r := range reqs {
		st := r.Wait(p)
		out[st.Source] = append([]byte(nil), bufs[st.Source][:st.Count]...)
	}
	return out
}

// ---------------------------------------------------------------------
// Typed helpers.

// F64Bytes encodes a float64 vector.
func F64Bytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, f := range v {
		binary.BigEndian.PutUint64(out[8*i:], math.Float64bits(f))
	}
	return out
}

// BytesF64 decodes a float64 vector.
func BytesF64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8*i:]))
	}
	return out
}

func encodeParts(parts [][]byte) []byte {
	total := 4
	for _, p := range parts {
		total += 4 + len(p)
	}
	out := make([]byte, 4, total)
	binary.BigEndian.PutUint32(out, uint32(len(parts)))
	var lenb [4]byte
	for _, p := range parts {
		binary.BigEndian.PutUint32(lenb[:], uint32(len(p)))
		out = append(out, lenb[:]...)
		out = append(out, p...)
	}
	return out
}

func decodeParts(blob []byte) [][]byte {
	n := int(binary.BigEndian.Uint32(blob))
	out := make([][]byte, 0, n)
	off := 4
	for i := 0; i < n; i++ {
		l := int(binary.BigEndian.Uint32(blob[off:]))
		off += 4
		out = append(out, append([]byte(nil), blob[off:off+l]...))
		off += l
	}
	return out
}

// ModuleName implements core.Module.
func (c *Comm) ModuleName() string { return "mpi" }
